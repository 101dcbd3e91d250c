package shardfile

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"gemmec"
)

// slabMember is one member's window in a packed shard set's payload.
type slabMember struct {
	name         string
	offset, size int64
}

// slabTestSet packs members into one shard set and returns its directory,
// manifest, the member windows in payload order and the member payloads by
// name.
func slabTestSet(t *testing.T, sizes []int) (string, Manifest, []slabMember, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	var payload []byte
	var entries []slabMember
	members := map[string][]byte{}
	rng := rand.New(rand.NewSource(42))
	for i, sz := range sizes {
		b := make([]byte, sz)
		rng.Read(b)
		name := string(rune('a' + i))
		entries = append(entries, slabMember{name: name, offset: int64(len(payload)), size: int64(sz)})
		members[name] = b
		payload = append(payload, b...)
	}
	m, _, err := writeStreamDir(dir, bytes.NewReader(payload), int64(len(payload)), tk, tr, tunit, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	return dir, m, entries, members
}

// TestSlabMemberRoundTrip: every member of a packed shard set reads back
// exactly through the DecodeRange window, healthy and degraded alike.
func TestSlabMemberRoundTrip(t *testing.T) {
	sizes := []int{100, 1, tunit, tk*tunit + 33, 0, 4096}
	dir, m, entries, members := slabTestSet(t, sizes)

	check := func() {
		t.Helper()
		for _, e := range entries {
			sr, err := OpenStreamPaths(DirPaths(dir, m.K+m.R), m, withWorkers(Opts{}, 2))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := sr.DecodeRange(&buf, 0, e.offset, e.size); err != nil {
				sr.Close()
				t.Fatalf("member %q: %v", e.name, err)
			}
			sr.Close()
			if !bytes.Equal(buf.Bytes(), members[e.name]) {
				t.Fatalf("member %q: got %d bytes, want %d, content mismatch",
					e.name, buf.Len(), len(members[e.name]))
			}
		}
	}
	check()

	// Degraded: lose one data shard and one parity shard, members still read.
	if err := os.Remove(ShardPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ShardPath(dir, tk)); err != nil {
		t.Fatal(err)
	}
	check()

	// Scrub heals the losses; members read clean again.
	healed, err := scrubDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(healed) != 2 {
		t.Fatalf("Scrub healed %v, want shards 0 and %d", healed, tk)
	}
	check()
}

// TestDecodeRangeBounds: windows outside the payload are rejected.
func TestDecodeRangeBounds(t *testing.T) {
	dir, _ := writeStreamTestFile(t, 100)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStreamPaths(DirPaths(dir, m.K+m.R), m, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var buf bytes.Buffer
	if _, err := sr.DecodeRange(&buf, 0, 50, 51); err == nil {
		t.Fatal("out-of-range window decoded")
	}
}

// TestStreamSchedulerOpt: the shared scheduler drives shardfile streams end
// to end, producing the same bytes as the per-call worker pool.
func TestStreamSchedulerOpt(t *testing.T) {
	s := gemmec.NewScheduler(gemmec.SchedulerConfig{Workers: 2})
	defer s.Close()
	dir := t.TempDir()
	raw := make([]byte, tk*tunit*2+99)
	rand.New(rand.NewSource(9)).Read(raw)
	paths := make([]string, tk+tr)
	for i := range paths {
		paths[i] = ShardPath(dir, i)
	}
	m, _, err := WriteStreamPaths(paths, bytes.NewReader(raw), int64(len(raw)), tk, tr, tunit, 0, Opts{Sched: s})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bad, _, err := readStreamPaths(paths, m, &buf, 0, Opts{Sched: s})
	if err != nil || len(bad) != 0 {
		t.Fatalf("read back: bad=%v err=%v", bad, err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("scheduler-driven stream round-trip mismatch")
	}
	if _, _, err := WriteStreamPaths(paths, bytes.NewReader(raw), int64(len(raw)), tk, tr, tunit, 0,
		Opts{Sched: nil}); err != nil {
		t.Fatal(err)
	}
}
