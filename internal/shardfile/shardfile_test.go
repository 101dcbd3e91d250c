package shardfile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gemmec"
)

const (
	tk    = 4
	tr    = 2
	tunit = 4096
)

func TestWriteReadRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, tunit - 1, tk * tunit, tk*tunit*3 + 17} {
		dir, raw := writeStreamTestFile(t, size)
		got, rebuilt, err := readStreamBack(dir)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(rebuilt) != 0 {
			t.Errorf("size %d: unexpected reconstruction %v", size, rebuilt)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("size %d: content mismatch", size)
		}
	}
}

func TestRepairAfterLosses(t *testing.T) {
	dir, raw := writeStreamTestFile(t, tk*tunit*2+100)
	// Delete r shards (the max tolerated).
	for _, i := range []int{1, 4} {
		if err := os.Remove(ShardPath(dir, i)); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt, err := scrubDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 2 || rebuilt[0] != 1 || rebuilt[1] != 4 {
		t.Fatalf("rebuilt=%v", rebuilt)
	}
	if err := Verify(dir); err != nil {
		t.Fatal(err)
	}
	got, _, err := readStreamBack(dir)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatal("content wrong after repair")
	}
	// Second repair is a no-op.
	rebuilt, err = scrubDir(dir)
	if err != nil || rebuilt != nil {
		t.Fatalf("no-op repair: %v %v", rebuilt, err)
	}
}

func TestRepairTooManyLosses(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit)
	for _, i := range []int{0, 1, 2} { // r+1 losses
		if err := os.Remove(ShardPath(dir, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := scrubDir(dir); err == nil {
		t.Error("unrecoverable loss accepted")
	}
}

func TestReadDegradedWithoutRepair(t *testing.T) {
	dir, raw := writeStreamTestFile(t, tk*tunit+5)
	if err := os.Remove(ShardPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	got, rebuilt, err := readStreamBack(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt) != 1 || rebuilt[0] != 0 {
		t.Errorf("rebuilt=%v", rebuilt)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("degraded read wrong")
	}
	// Read must not have re-written the shard file.
	if _, err := os.Stat(ShardPath(dir, 0)); !errors.Is(err, os.ErrNotExist) {
		t.Error("degraded read wrote the shard back")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit)
	if err := Verify(dir); err != nil {
		t.Fatal(err)
	}
	p := ShardPath(dir, 2)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[7] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Verify(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err=%v want ErrCorrupt", err)
	}
	// Missing shard: verify refuses.
	if err := os.Remove(ShardPath(dir, 3)); err != nil {
		t.Fatal(err)
	}
	if err := Verify(dir); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("missing shard err=%v", err)
	}
}

func TestTruncatedShardTreatedAsMissing(t *testing.T) {
	dir, raw := writeStreamTestFile(t, tk*tunit)
	p := ShardPath(dir, 1)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStreamPaths(DirPaths(dir, tk+tr), m, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	sr.Close()
	if missing := sr.Unusable(); len(missing) != 1 || missing[0] != 1 {
		t.Fatalf("missing=%v", missing)
	}
	got, _, err := readStreamBack(dir)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatal("read with truncated shard failed")
	}
}

func TestScrubHealsCorruption(t *testing.T) {
	dir, raw := writeStreamTestFile(t, tk*tunit*2)
	// Corrupt one shard in place (no size change) and delete another —
	// scrub must heal both.
	p := ShardPath(dir, 2)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[tunit+5] ^= 0xA5
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ShardPath(dir, 5)); err != nil {
		t.Fatal(err)
	}
	healed, err := scrubDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(healed) != 2 || healed[0] != 2 || healed[1] != 5 {
		t.Fatalf("healed=%v", healed)
	}
	if err := Verify(dir); err != nil {
		t.Fatal(err)
	}
	got, rebuilt, err := readStreamBack(dir)
	if err != nil || len(rebuilt) != 0 || !bytes.Equal(got, raw) {
		t.Fatal("content wrong after scrub")
	}
	// Clean set scrubs nothing.
	healed, err = scrubDir(dir)
	if err != nil || healed != nil {
		t.Fatalf("clean scrub: %v %v", healed, err)
	}
}

// With v2 manifests the scrubber's ≤r erasure budget applies per stripe,
// not per shard: more than r shards can be rotten as long as no single
// stripe has more than r damaged cells. The v1 whole-shard scrub would
// have declared this set unrecoverable.
func TestScrubStripeGranular(t *testing.T) {
	dir, raw := writeStreamTestFile(t, tk*tunit*4) // 4 stripes
	// Four rotten shards (tr+2), each damaged in a different stripe, plus
	// one missing shard. Per-stripe damage never exceeds r=2.
	for i := 0; i < 4; i++ {
		p := ShardPath(dir, i)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[i*tunit+7] ^= 0x5A
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(ShardPath(dir, 5)); err != nil {
		t.Fatal(err)
	}
	healed, err := scrubDir(dir)
	if err != nil {
		t.Fatalf("stripe-granular scrub failed on per-stripe-recoverable rot: %v", err)
	}
	want := []int{0, 1, 2, 3, 5}
	if len(healed) != len(want) {
		t.Fatalf("healed = %v, want %v", healed, want)
	}
	for i := range want {
		if healed[i] != want[i] {
			t.Fatalf("healed = %v, want %v", healed, want)
		}
	}
	if err := Verify(dir); err != nil {
		t.Fatal(err)
	}
	got, rebuilt, err := readStreamBack(dir)
	if err != nil || len(rebuilt) != 0 || !bytes.Equal(got, raw) {
		t.Fatalf("content wrong after stripe-granular scrub (rebuilt=%v err=%v)", rebuilt, err)
	}
}

func TestScrubTooMuchRot(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit)
	for _, i := range []int{0, 1, 2} { // r+1 corruptions
		p := ShardPath(dir, i)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[0] ^= 1
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := scrubDir(dir); err == nil {
		t.Error("unrecoverable rot accepted")
	}
}

// TestManifestChecksums: the manifest a writer emits records exactly one
// checksum per unit, every unit on disk matches its sum, a flipped byte
// fails exactly its own unit (as corruption), a stripe past the table
// fails as truncation, and Validate rejects a wrong-shaped sum table and
// every version but v2.
func TestManifestChecksums(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit*2+5)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.StripeSums) != tk+tr {
		t.Fatalf("stripe sums for %d shards, want %d", len(m.StripeSums), tk+tr)
	}
	verifyEveryUnit(t, dir, m)

	data, err := os.ReadFile(ShardPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	data[tunit+9] ^= 1 // shard 3, stripe 1
	for s := 0; s < m.Stripes; s++ {
		err := m.VerifyUnit(3, int64(s), data[s*tunit:(s+1)*tunit])
		if (err == nil) != (s != 1) || (err != nil && !errors.Is(err, gemmec.ErrCorruptShard)) {
			t.Errorf("flipped byte in stripe 1: VerifyUnit(stripe %d) = %v", s, err)
		}
	}
	if err := m.VerifyUnit(3, int64(m.Stripes), data[:tunit]); !errors.Is(err, gemmec.ErrShardTruncated) {
		t.Errorf("VerifyUnit past the sum table = %v, want ErrShardTruncated", err)
	}

	bad := m
	bad.StripeSums = m.StripeSums[:2]
	if err := bad.Validate(); err == nil {
		t.Error("wrong stripe-sum shard count accepted")
	}
	for _, v := range []int{0, 1, 3} {
		bad = m
		bad.Version = v
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d: only v2", v)) {
			t.Errorf("version %d manifest: Validate = %v, want the version named and refused", v, err)
		}
	}
}

// verifyEveryUnit fails unless every unit of every shard file under dir
// matches m's recorded CRC32C.
func verifyEveryUnit(t *testing.T, dir string, m Manifest) {
	t.Helper()
	for i := 0; i < m.K+m.R; i++ {
		data, err := os.ReadFile(ShardPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != m.Stripes*m.UnitSize {
			t.Fatalf("shard %d is %d bytes, want %d", i, len(data), m.Stripes*m.UnitSize)
		}
		for s := 0; s < m.Stripes; s++ {
			if m.VerifyUnit(i, int64(s), data[s*m.UnitSize:(s+1)*m.UnitSize]) != nil {
				t.Errorf("shard %d stripe %d fails its stripe sum on a clean set", i, s)
			}
		}
	}
}

func TestManifestValidation(t *testing.T) {
	for _, bad := range []Manifest{
		{},
		{Version: ManifestV2, K: 4, R: 2, UnitSize: 0, Stripes: 1},
		{Version: ManifestV2, K: 4, R: 2, UnitSize: 64, Stripes: 1, FileSize: -1},
		{Version: ManifestV2, K: 4, R: 2, UnitSize: 64, Stripes: 1, FileSize: 10 << 20},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("manifest %+v accepted", bad)
		}
	}
	dir := t.TempDir()
	if _, err := LoadManifest(dir); err == nil {
		t.Error("missing manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Error("corrupt manifest accepted")
	}
	if _, err := ScrubPaths(DirPaths(dir, tk+tr), Manifest{}, Opts{}); err == nil {
		t.Error("invalid manifest accepted by ScrubPaths")
	}
}

func TestWriteValidation(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := writeStreamDir(dir, strings.NewReader("x"), 1, 0, 2, tunit, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := writeStreamDir(dir, strings.NewReader("x"), 1, 4, 2, 100, 0); err == nil {
		t.Error("bad unit size accepted")
	}
}
