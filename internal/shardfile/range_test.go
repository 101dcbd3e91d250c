package shardfile

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"gemmec"
)

// decodeRangeBack opens the shard set and decodes one window.
func decodeRangeBack(t *testing.T, dir string, off, length int64) ([]byte, gemmec.StreamStats, error) {
	t.Helper()
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStreamPaths(DirPaths(dir, m.K+m.R), m, withWorkers(Opts{}, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var buf bytes.Buffer
	st, err := sr.DecodeRange(&buf, 0, off, length)
	return buf.Bytes(), st, err
}

// TestDecodeRangeBoundaries: windows straddling every interesting boundary
// — unit edges, stripe edges, the first and last byte, suffixes, the whole
// object — decode to exactly the window of the original payload.
func TestDecodeRangeBoundaries(t *testing.T) {
	size := tk*tunit*3 + tunit/2 + 7 // 3 full stripes + a ragged tail
	dir, raw := writeStreamTestFile(t, size)
	stripe := int64(tk * tunit)
	n := int64(size)

	windows := []struct{ off, length int64 }{
		{0, 1},                       // first byte
		{n - 1, 1},                   // last byte
		{0, n},                       // whole object
		{tunit - 1, 2},               // unit boundary straddle
		{tunit, tunit},               // one exact unit
		{stripe - 1, 2},              // stripe boundary straddle
		{stripe, stripe},             // one exact stripe
		{stripe / 2, stripe * 2},     // mid-stripe start, multi-stripe span
		{n - tunit/3, tunit / 3},     // ragged-tail suffix
		{2*stripe + 3, stripe + 100}, // window into the tail stripe
		{0, 0},                       // empty window
		{n, 0},                       // empty window at EOF
	}
	for _, w := range windows {
		got, _, err := decodeRangeBack(t, dir, w.off, w.length)
		if err != nil {
			t.Fatalf("[%d,+%d): %v", w.off, w.length, err)
		}
		if !bytes.Equal(got, raw[w.off:w.off+w.length]) {
			t.Fatalf("[%d,+%d): content mismatch (%d bytes)", w.off, w.length, len(got))
		}
	}
}

// TestDecodeRangeDegraded: losing a data shard and corrupting a parity
// shard still serves every boundary window byte-exactly (reconstruction
// covers the window's stripes only).
func TestDecodeRangeDegraded(t *testing.T) {
	size := tk*tunit*4 + 99
	dir, raw := writeStreamTestFile(t, size)
	if err := os.Remove(ShardPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	// Rot a parity shard mid-file; stripe sums catch it at read time.
	p := ShardPath(dir, tk)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[2*tunit+5] ^= 0xFF
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}

	stripe := int64(tk * tunit)
	for _, w := range []struct{ off, length int64 }{
		{0, 1}, {stripe - 1, 2}, {2 * stripe, stripe}, {int64(size) - 10, 10},
	} {
		got, _, err := decodeRangeBack(t, dir, w.off, w.length)
		if err != nil {
			t.Fatalf("degraded [%d,+%d): %v", w.off, w.length, err)
		}
		if !bytes.Equal(got, raw[w.off:w.off+w.length]) {
			t.Fatalf("degraded [%d,+%d): content mismatch", w.off, w.length)
		}
	}
}

// TestDecodeRangeOverflowBounds: adversarial off/length values near
// MaxInt64 must be rejected, not wrapped. Regression test for the bounds
// check computing off+length, which overflows negative and slipped past a
// naive `off+length > FileSize` comparison.
func TestDecodeRangeOverflowBounds(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit+100)
	for _, w := range []struct{ off, length int64 }{
		{1, math.MaxInt64},
		{math.MaxInt64, 1},
		{math.MaxInt64, math.MaxInt64},
		{-1, 10},
		{0, -1},
		{0, int64(tk*tunit+100) + 1},
	} {
		if _, _, err := decodeRangeBack(t, dir, w.off, w.length); err == nil {
			t.Fatalf("[%d,+%d): out-of-bounds window decoded", w.off, w.length)
		}
	}
}

// TestDecodeRangeStripeIO: the shard I/O of a ranged decode is O(stripes
// covering the window): a one-byte read of a 32-stripe object pushes
// exactly one stripe through the pipeline, and a tail read seeks straight
// to the last stripe instead of streaming the prefix.
func TestDecodeRangeStripeIO(t *testing.T) {
	const stripes = 32
	size := tk * tunit * stripes
	dir, raw := writeStreamTestFile(t, size)
	stripe := int64(tk * tunit)

	for _, w := range []struct {
		off, length int64
		want        int64 // covering stripes
	}{
		{0, 1, 1},                   // head byte
		{int64(size) - 1, 1, 1},     // tail byte: seek, no prefix decode
		{stripe*15 + 3, stripe, 2},  // mid-object straddle
		{stripe * 4, 2 * stripe, 2}, // aligned two-stripe window
	} {
		got, st, err := decodeRangeBack(t, dir, w.off, w.length)
		if err != nil {
			t.Fatalf("[%d,+%d): %v", w.off, w.length, err)
		}
		if !bytes.Equal(got, raw[w.off:w.off+w.length]) {
			t.Fatalf("[%d,+%d): content mismatch", w.off, w.length)
		}
		if st.Stripes != w.want {
			t.Errorf("[%d,+%d): decoded %d stripes, want %d (O(covering stripes) violated)",
				w.off, w.length, st.Stripes, w.want)
		}
	}
}

// patchReencodeCheck applies data at off via PlanPatch/ApplyPatch and
// fails unless every shard file and the full decoded payload are
// byte-identical to a from-scratch encode of the spliced payload.
func patchReencodeCheck(t *testing.T, dir string, raw []byte, off int64, data []byte) []byte {
	t.Helper()
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths := DirPaths(dir, m.K+m.R)
	p, err := PlanPatch(paths, m, off, data, Opts{})
	if err != nil {
		t.Fatalf("PlanPatch(off=%d,len=%d): %v", off, len(data), err)
	}
	if err := ApplyPatch(paths, p, Opts{}); err != nil {
		t.Fatalf("ApplyPatch(off=%d,len=%d): %v", off, len(data), err)
	}
	if err := SaveManifest(dir, p.Manifest); err != nil {
		t.Fatal(err)
	}

	// The ground truth: splice in memory, encode from scratch.
	want := append([]byte(nil), raw...)
	if end := off + int64(len(data)); end > int64(len(want)) {
		want = append(want, make([]byte, end-int64(len(want)))...)
	}
	copy(want[off:], data)
	refDir := t.TempDir()
	rm, _, err := writeStreamDir(refDir, bytes.NewReader(want), int64(len(want)), m.K, m.R, m.UnitSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.K+m.R; i++ {
		got, err := os.ReadFile(ShardPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := os.ReadFile(ShardPath(refDir, i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("patch(off=%d,len=%d): shard %d differs from full re-encode", off, len(data), i)
		}
	}
	if p.Manifest.Stripes != rm.Stripes || p.Manifest.FileSize != rm.FileSize {
		t.Fatalf("patched manifest geometry (%d stripes, %d bytes) != re-encode (%d, %d)",
			p.Manifest.Stripes, p.Manifest.FileSize, rm.Stripes, rm.FileSize)
	}

	// And the decoded payload round-trips through the patched manifest.
	got, bad, err := readStreamBack(dir)
	if err != nil || len(bad) != 0 {
		t.Fatalf("read back after patch: bad=%v err=%v", bad, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("patch(off=%d,len=%d): decoded payload differs from spliced original", off, len(data))
	}
	return want
}

// TestPatchMatchesReencode: E-UPDATE crosscheck — the XOR-patched shard
// set is byte-identical to encoding the spliced payload from scratch, at
// every boundary class: within a unit, across units, across stripes,
// growing the tail, and a pure append.
func TestPatchMatchesReencode(t *testing.T) {
	size := tk*tunit*3 + 200
	dir, raw := writeStreamTestFile(t, size)
	rng := rand.New(rand.NewSource(11))
	patch := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	stripe := int64(tk * tunit)

	raw = patchReencodeCheck(t, dir, raw, 0, patch(1))                      // first byte
	raw = patchReencodeCheck(t, dir, raw, tunit-1, patch(2))                // unit straddle
	raw = patchReencodeCheck(t, dir, raw, stripe-3, patch(7))               // stripe straddle
	raw = patchReencodeCheck(t, dir, raw, stripe, patch(2*tk*tunit))        // two aligned stripes
	raw = patchReencodeCheck(t, dir, raw, int64(size)-5, patch(300))        // grow past the tail
	raw = patchReencodeCheck(t, dir, raw, int64(len(raw)), patch(tunit+13)) // pure append
	_ = patchReencodeCheck(t, dir, raw, int64(len(raw))-1, patch(0))        // empty patch
}

// oneCode is a CodeSource serving one prebuilt code, so a measurement
// of PlanPatch does not count building it.
type oneCode struct{ c *gemmec.Code }

func (s oneCode) StreamCode(k, r, unitSize int) (*gemmec.Code, error) { return s.c, nil }
func (s oneCode) StreamPool(k, r, unitSize int) (*gemmec.StripePool, error) {
	return nil, nil
}

// TestPatchAllocatesOnlyWhatItWrites: a 1 KiB patch inside one data unit
// of a (4, 2) set with 128 KiB units allocates the units it writes — the
// new data unit and the r parity units — and one scratch unit for the
// delta: r+2 units, plus a few KiB of manifest and plan, where planning
// once allocated a whole data stripe and a copy of every write (11
// units).
func TestPatchAllocatesOnlyWhatItWrites(t *testing.T) {
	const k, r, unit = 4, 2, 128 << 10
	dir := t.TempDir()
	raw := make([]byte, 2*k*unit)
	rand.New(rand.NewSource(3)).Read(raw)
	m, _, err := writeStreamDir(dir, bytes.NewReader(raw), int64(len(raw)), k, r, unit, 1)
	if err != nil {
		t.Fatal(err)
	}
	code, err := gemmec.New(k, r, gemmec.WithUnitSize(unit))
	if err != nil {
		t.Fatal(err)
	}
	paths, opt := DirPaths(dir, k+r), Opts{Source: oneCode{code}}
	data := bytes.Repeat([]byte{0xa5}, 1024)
	off := int64(k*unit + unit + 100) // inside stripe 1's data unit 1
	if _, err := PlanPatch(paths, m, off, data, opt); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := PlanPatch(paths, m, off, data, opt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got, limit := int64(after.TotalAlloc-before.TotalAlloc)/runs, int64((r+2)*unit+4<<10)
	t.Logf("PlanPatch: %d bytes allocated per 1 KiB interior patch", got)
	if got > limit {
		t.Fatalf("PlanPatch allocates %d bytes per 1 KiB interior patch, want at most %d (r+2 units of %d, plus 4 KiB)",
			got, limit, unit)
	}
}

// TestPatchUnsupportedFallbacks: a shard set missing a unit the patch
// must read fails with ErrPatchUnsupported so the caller can fall back to
// read-modify-write, and offsets beyond EOF are plain errors. (Packed
// slab members are refused a level up, by the server: their manifest is
// an ordinary one.)
func TestPatchUnsupportedFallbacks(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ShardPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := PlanPatch(DirPaths(dir, m.K+m.R), m, 1, []byte("x"), Opts{}); !errors.Is(err, ErrPatchUnsupported) {
		t.Fatalf("missing-shard PlanPatch err = %v, want ErrPatchUnsupported", err)
	}

	dir2, _ := writeStreamTestFile(t, tk*tunit)
	m2, err := LoadManifest(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanPatch(DirPaths(dir2, m2.K+m2.R), m2, m2.FileSize+1, []byte("x"), Opts{}); err == nil {
		t.Fatal("PlanPatch past EOF succeeded")
	}
}

// TestPatchRottenUnitUnsupported: a patch that must read a unit whose
// stripe sum no longer matches refuses in-place (ErrPatchUnsupported), so
// the daemon falls back to the verified read-modify-write path instead of
// laundering rot into fresh parity.
func TestPatchRottenUnitUnsupported(t *testing.T) {
	dir, _ := writeStreamTestFile(t, tk*tunit*2)
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := ShardPath(dir, 0)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[5] ^= 0x80 // rot shard 0, stripe 0
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// A partial overwrite of stripe 0 needs the rotten old unit.
	if _, err := PlanPatch(DirPaths(dir, m.K+m.R), m, 1, []byte("yz"), Opts{}); !errors.Is(err, ErrPatchUnsupported) {
		t.Fatalf("rotten-unit PlanPatch err = %v, want ErrPatchUnsupported", err)
	}
}
