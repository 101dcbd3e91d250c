package shardfile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gemmec"
)

// writeStreamTestFile encodes a random payload into a fresh shard
// directory and returns the directory and the payload.
func writeStreamTestFile(t *testing.T, size int) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	raw := make([]byte, size)
	rand.New(rand.NewSource(int64(size) + 7)).Read(raw)
	m, _, err := writeStreamDir(dir, bytes.NewReader(raw), int64(size), tk, tr, tunit, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return dir, raw
}

func readStreamBack(dir string) ([]byte, []int, error) {
	var buf bytes.Buffer
	_, bad, _, err := readStreamDir(dir, &buf, 2)
	return buf.Bytes(), bad, err
}

func TestWriteReadStreamRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, tunit - 1, tk * tunit, tk*tunit*3 + 17} {
		dir, raw := writeStreamTestFile(t, size)
		got, bad, err := readStreamBack(dir)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(bad) != 0 {
			t.Errorf("size %d: unexpected unusable shards %v", size, bad)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("size %d: content mismatch", size)
		}
	}
}

// A truncated shard file must not be fed to the decoder as-is: ReadStream
// treats it as erased, reconstructs around it, and reports it.
func TestReadStreamTruncatedShard(t *testing.T) {
	dir, raw := writeStreamTestFile(t, tk*tunit*2+100)
	p := ShardPath(dir, 1)
	fi, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(p, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	got, bad, err := readStreamBack(dir)
	if err != nil {
		t.Fatalf("degraded read after truncation: %v", err)
	}
	if len(bad) != 1 || bad[0] != 1 {
		t.Fatalf("unusable = %v, want [1]", bad)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("content mismatch after reconstructing truncated shard")
	}
}

// With more truncated shards than the code tolerates, ReadStream must fail
// loudly (never emit garbage), and the error must classify as both
// corruption and unrecoverable loss.
func TestReadStreamTooManyTruncated(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit*2+100)
	for i := 0; i <= tr; i++ { // tr+1 failures: unrecoverable
		if err := os.Truncate(ShardPath(dir, i), 10); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := readStreamBack(dir)
	if err == nil {
		t.Fatal("ReadStream succeeded with k-1 usable shards")
	}
	if !errors.Is(err, gemmec.ErrTooFewShards) {
		t.Errorf("error %v does not wrap ErrTooFewShards", err)
	}
	if !errors.Is(err, gemmec.ErrCorruptShard) {
		t.Errorf("error %v does not wrap ErrCorruptShard", err)
	}
}

// A shard that reads short mid-decode (the manifest promises more stripes
// than the files hold, e.g. a lying or stale manifest without checksums)
// must surface a decode error, not silently pad.
func TestReadStreamShortRead(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit*2+100)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate the stripe count so the open-time size check cannot save us;
	// the read must fail rather than pad.
	m.Stripes++
	m.FileSize = int64(m.Stripes) * int64(m.K) * int64(m.UnitSize)
	if err := SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	_, bad, err := readStreamBack(dir)
	if err == nil {
		t.Fatalf("ReadStream silently succeeded on short shard streams (unusable=%v)", bad)
	}
}

// Silent bit rot: flipping a byte in one shard (file length unchanged) must
// be caught by the manifest checksum and reconstructed around — previously
// this decoded to garbage with no error.
func TestReadStreamChecksumMismatchDegrades(t *testing.T) {
	dir, raw := writeStreamTestFile(t, tk*tunit*3+17)
	p := ShardPath(dir, 2)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0xff
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, bad, err := readStreamBack(dir)
	if err != nil {
		t.Fatalf("degraded read after bit flip: %v", err)
	}
	if len(bad) != 1 || bad[0] != 2 {
		t.Fatalf("unusable = %v, want [2]", bad)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("content mismatch after reconstructing corrupt shard")
	}
}

// Too much silent rot to reconstruct: the error must wrap ErrCorruptShard
// so callers can tell checksum failure from plain loss.
func TestReadStreamChecksumMismatchUnrecoverable(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit*2)
	for i := 0; i <= tr; i++ {
		p := ShardPath(dir, i)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := readStreamBack(dir)
	if !errors.Is(err, gemmec.ErrCorruptShard) {
		t.Fatalf("error %v does not wrap ErrCorruptShard", err)
	}
	if !errors.Is(err, gemmec.ErrTooFewShards) {
		t.Fatalf("error %v does not wrap ErrTooFewShards", err)
	}
}

// corruptShardByte flips one byte of a shard file in place (length
// unchanged), defeating every check except content verification.
func corruptShardByte(t *testing.T, dir string, shard int, off int64) {
	t.Helper()
	p := ShardPath(dir, shard)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0xA5
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A v2 open must not read shard content: in-place corruption is invisible
// at open time (proving the pre-verification pass is gone) and is caught
// by the stripe checksums inside the decode itself, which demotes the
// shard, reconstructs around it, and still returns byte-identical data.
func TestV2OpenSkipsPreRead(t *testing.T) {
	dir, raw := writeStreamTestFile(t, tk*tunit*3+17)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	corruptShardByte(t, dir, 2, int64(tunit)+13) // stripe 1 of shard 2
	sr, err := OpenStreamPaths(DirPaths(dir, m.K+m.R), m, withWorkers(Opts{}, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.Degraded() {
		t.Fatal("v2 open saw in-place corruption: shard content was pre-read")
	}
	var buf bytes.Buffer
	if _, err := sr.Decode(&buf, 0); err != nil {
		t.Fatalf("decode with one rotten shard: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("content mismatch after mid-stream demotion")
	}
	dem := sr.Demoted()
	if len(dem) != 1 || dem[0].Shard != 2 || dem[0].Stripe != 1 {
		t.Fatalf("Demoted = %+v, want shard 2 at stripe 1", dem)
	}
	if !errors.Is(dem[0].Cause, gemmec.ErrCorruptShard) {
		t.Errorf("demotion cause %v does not wrap ErrCorruptShard", dem[0].Cause)
	}
	if !errors.Is(dem[0], gemmec.ErrShardDemoted) {
		t.Errorf("demotion %v does not match ErrShardDemoted", dem[0])
	}
	if bad := sr.Unusable(); len(bad) != 1 || bad[0] != 2 {
		t.Fatalf("post-decode Unusable = %v, want [2]", bad)
	}
	if !sr.Degraded() {
		t.Fatal("reader not degraded after demotion")
	}
}

// A shard that passes open-time checks and is then truncated before the
// decode reaches its tail must demote mid-stream: earlier stripes came
// from it, later stripes reconstruct around it, output is byte-identical.
func TestMidStreamTruncationDemotes(t *testing.T) {
	dir, raw := writeStreamTestFile(t, tk*tunit*4+99)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStreamPaths(DirPaths(dir, m.K+m.R), m, withWorkers(Opts{}, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.Degraded() {
		t.Fatal("open not clean")
	}
	// Truncate shard 1 to one stripe and a bit AFTER the open passed its
	// length check — the decode's own reads hit the cliff at stripe 1.
	if err := os.Truncate(ShardPath(dir, 1), int64(tunit)+100); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sr.Decode(&buf, 0); err != nil {
		t.Fatalf("decode with mid-stream truncation: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("content mismatch after mid-stream truncation")
	}
	dem := sr.Demoted()
	if len(dem) != 1 || dem[0].Shard != 1 {
		t.Fatalf("Demoted = %+v, want shard 1", dem)
	}
	if !errors.Is(dem[0].Cause, gemmec.ErrCorruptShard) {
		t.Errorf("truncation demotion cause %v does not wrap ErrCorruptShard", dem[0].Cause)
	}
}

// More demotions than the code tolerates: the decode must fail loudly and
// the error must classify as demotion + corruption + unrecoverable loss.
func TestTooManyDemotionsFails(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit*2+100)
	for i := 0; i <= tr; i++ { // tr+1 rotten shards, all in stripe 0
		corruptShardByte(t, dir, i, 11)
	}
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStreamPaths(DirPaths(dir, m.K+m.R), m, withWorkers(Opts{}, 2))
	if err != nil {
		t.Fatal(err) // open is clean: corruption is in-place
	}
	defer sr.Close()
	var buf bytes.Buffer
	_, err = sr.Decode(&buf, 0)
	if err == nil {
		t.Fatal("decode succeeded with fewer than k trusted shards")
	}
	for _, sentinel := range []error{gemmec.ErrShardDemoted, gemmec.ErrTooFewShards, gemmec.ErrCorruptShard} {
		if !errors.Is(err, sentinel) {
			t.Errorf("error %v does not wrap %v", err, sentinel)
		}
	}
	if len(sr.Demoted()) == 0 {
		t.Error("no demotions recorded on the failure path")
	}
}

// TestV1ManifestRefused: a v1-format manifest — whole-shard SHA-256 only,
// or no checksum at all — fails closed on every entry point with the error
// that names its version: nothing is decoded, and a rotten shard under it
// is neither served nor rewritten.
func TestV1ManifestRefused(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit*2+9)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	corruptShardByte(t, dir, 3, 7)
	paths := DirPaths(dir, m.K+m.R)
	found := make([][]byte, len(paths))
	sums := make([]string, len(paths))
	for i, p := range paths {
		if found[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
		sums[i] = shardSum(found[i])
	}
	for _, c := range []struct {
		name    string
		version int
		sums    []string
	}{{"sha256 only", 0, sums}, {"no checksum", 1, nil}} {
		t.Run(c.name, func(t *testing.T) {
			v1 := struct {
				Manifest
				Checksums []string `json:"checksums,omitempty"`
			}{m, c.sums}
			v1.Version, v1.StripeSums = c.version, nil
			raw, err := json.Marshal(v1)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			var parsed Manifest // what a reader that skipped Validate would hold
			if err := json.Unmarshal(raw, &parsed); err != nil {
				t.Fatal(err)
			}
			refused := func(what string, err error) {
				t.Helper()
				want := fmt.Sprintf("manifest version %d: only v2 manifests are readable", c.version)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s under a v1-format manifest: err = %v, want %q", what, err, want)
				}
			}
			_, err = LoadManifest(dir)
			refused("LoadManifest", err)
			sr, err := OpenStreamPaths(paths, parsed, Opts{})
			if sr != nil {
				sr.Close()
			}
			refused("OpenStreamPaths", err)
			_, err = ScrubPaths(paths, parsed, Opts{})
			refused("ScrubPaths", err)
			_, err = PlanPatch(paths, parsed, 0, []byte("x"), Opts{})
			refused("PlanPatch", err)
			refused("Verify", Verify(dir))

			for i, p := range paths {
				if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, found[i]) {
					t.Errorf("shard %d changed under a refused v1-format manifest (err %v)", i, err)
				}
			}
			if ents, _ := os.ReadDir(dir); len(ents) != len(paths)+1 {
				t.Errorf("%d files beside the set, want only the %d shards and the manifest", len(ents), len(paths))
			}
		})
	}
}

// OpenStreamPaths reports degradation before any payload byte is decoded,
// which is what lets the HTTP server set degraded-read headers up front.
func TestOpenStreamPathsReportsBeforeDecode(t *testing.T) {
	dir, raw := writeStreamTestFile(t, tk*tunit+5)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ShardPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStreamPaths(DirPaths(dir, m.K+m.R), m, withWorkers(Opts{}, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if !sr.Degraded() {
		t.Fatal("reader not degraded after shard loss")
	}
	if got := sr.Unusable(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Unusable = %v, want [0]", got)
	}
	if len(sr.Corrupt()) != 0 {
		t.Fatalf("Corrupt = %v, want none (shard was removed, not rotted)", sr.Corrupt())
	}
	var buf bytes.Buffer
	if _, err := sr.Decode(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("content mismatch")
	}
}
