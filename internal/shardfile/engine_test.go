package shardfile

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gemmec"
	"gemmec/internal/vfs"
)

// shardSet is one instantiation of the shard-stream engine under test:
// where the encode core's shard bytes go and where the decode core reads
// them back from.
type shardSet interface {
	write(src io.Reader, size int64) (Manifest, error)
	// open returns a reader over payload bytes [off, off+n).
	open(m Manifest, off, n int64) (*StreamReader, error)
	shard(t *testing.T, i int) []byte
	// lose makes shard i unavailable to later opens.
	lose(i int)
	// rot flips one byte of shard i inside the given stripe's unit.
	rot(t *testing.T, i, stripe int)
	// repair scans the set and rebuilds what carries damage, returning the
	// healed shards. cancelMid cancels the context once the repair targets
	// exist, before the first stripe is rebuilt.
	repair(m Manifest, cancelMid bool) ([]int, error)
}

// fileSet is the file instantiation: WriteStreamPaths / OpenRangePaths
// over one directory.
type fileSet struct{ paths []string }

func (s *fileSet) write(src io.Reader, size int64) (Manifest, error) {
	m, _, err := WriteStreamPaths(s.paths, src, size, tk, tr, tunit, 0, withWorkers(Opts{}, 2))
	return m, err
}
func (s *fileSet) open(m Manifest, off, n int64) (*StreamReader, error) {
	return OpenRangePaths(s.paths, m, off, n, withWorkers(Opts{}, 2))
}
func (s *fileSet) shard(t *testing.T, i int) []byte {
	b, err := os.ReadFile(s.paths[i])
	if err != nil {
		t.Fatal(err)
	}
	return b
}
func (s *fileSet) lose(i int) { os.Remove(s.paths[i]) }
func (s *fileSet) rot(t *testing.T, i, stripe int) {
	b := s.shard(t, i)
	b[stripe*tunit+7] ^= 0x5A
	if err := os.WriteFile(s.paths[i], b, 0o644); err != nil {
		t.Fatal(err)
	}
}
func (s *fileSet) repair(m Manifest, cancelMid bool) ([]int, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Opts{Ctx: ctx}
	if cancelMid {
		opt.FS = cancelOnCreate{vfs.OS, cancel}
	}
	return ScrubPaths(s.paths, m, opt)
}

// cancelOnCreate cancels a context the moment a repair creates its first
// temporary file — after the scan, before any stripe is rebuilt.
type cancelOnCreate struct {
	vfs.FS
	cancel context.CancelFunc
}

func (c cancelOnCreate) Create(name string) (vfs.File, error) {
	c.cancel()
	return c.FS.Create(name)
}

// streamSet is the pre-opened-stream instantiation the cluster gateway
// uses: WriteStreamTo into plain writers, OpenStreams over non-seekable
// bodies cut to the plan's intervals (as a peer's ranged shard GET is),
// the planned ones opened up front and the rest on demand. short cuts
// that many bytes off the end of every body handed out.
type streamSet struct {
	bufs  []*bytes.Buffer
	short int
}

// body is shard i's stripes [from, to) as a peer would serve them.
func (s *streamSet) body(i int, from, to int64) (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(s.bufs[i].Bytes()[from*tunit : to*tunit-int64(s.short)])), nil
}

// openPlan probes the set as the gateway does: a body per planned shard,
// presence only for the rest.
func (s *streamSet) openPlan(m Manifest, plan ReadPlan, opt Opts) (*StreamReader, error) {
	srcs := make([]io.ReadCloser, tk+tr)
	lost := make([]bool, tk+tr)
	for i, b := range s.bufs {
		if lost[i] = b == nil; lost[i] {
			continue
		}
		if from, to := plan.Interval(i); from < to {
			srcs[i], _ = s.body(i, from, to)
		}
	}
	return OpenStreams(m, plan, srcs, lost, s.body, opt)
}

func (s *streamSet) write(src io.Reader, size int64) (Manifest, error) {
	ws := make([]io.Writer, tk+tr)
	for i := range ws {
		s.bufs[i] = new(bytes.Buffer)
		ws[i] = s.bufs[i]
	}
	m, _, err := WriteStreamTo(ws, src, size, tk, tr, tunit, Opts{})
	return m, err
}
func (s *streamSet) open(m Manifest, off, n int64) (*StreamReader, error) {
	plan, err := PlanRead(m, off, n)
	if err != nil {
		return nil, err
	}
	return s.openPlan(m, plan, Opts{})
}
func (s *streamSet) shard(_ *testing.T, i int) []byte { return s.bufs[i].Bytes() }
func (s *streamSet) lose(i int)                       { s.bufs[i] = nil }
func (s *streamSet) rot(_ *testing.T, i, stripe int)  { s.bufs[i].Bytes()[stripe*tunit+7] ^= 0x5A }
func (s *streamSet) repair(m Manifest, cancelMid bool) ([]int, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	open := func() (*StreamReader, error) { return s.openPlan(m, FullPlan(m), Opts{Ctx: ctx}) }
	sr, err := open()
	if err != nil {
		return nil, err
	}
	damaged, err := sr.Scan()
	if err != nil || len(damaged) == 0 {
		return nil, err
	}
	if sr, err = open(); err != nil {
		return nil, err
	}
	rebuilt := make([]*bytes.Buffer, tk+tr)
	ws := make([]io.Writer, tk+tr)
	for _, i := range damaged {
		rebuilt[i] = new(bytes.Buffer)
		ws[i] = rebuilt[i]
	}
	if cancelMid {
		cancel()
	}
	if err := sr.RepairTo(ws); err != nil {
		return nil, err
	}
	for _, i := range damaged {
		s.bufs[i] = rebuilt[i] // the commit
	}
	return damaged, nil
}

// eachInstantiation runs f once per engine instantiation, each on a
// fresh empty shard set.
func eachInstantiation(t *testing.T, f func(t *testing.T, s shardSet)) {
	t.Run("files", func(t *testing.T) { f(t, &fileSet{paths: DirPaths(t.TempDir(), tk+tr)}) })
	t.Run("streams", func(t *testing.T) { f(t, &streamSet{bufs: make([]*bytes.Buffer, tk+tr)}) })
}

// TestEngineGoldenManifest: both instantiations lay down the shards and
// the manifest the golden (pre-refactor) build did — same stripe sums,
// shard bytes matching the golden SHA-256 digests — carrying stripe sums
// only.
func TestEngineGoldenManifest(t *testing.T) {
	_, golden, sums := loadGolden(t)
	raw := goldenPayload()
	eachInstantiation(t, func(t *testing.T, s shardSet) {
		m, err := s.write(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, golden) {
			t.Fatalf("manifest differs from the golden one beyond dropping checksums:\n got %+v\nwant %+v", m, golden)
		}
		for i, sum := range sums {
			if shardSum(s.shard(t, i)) != sum {
				t.Errorf("shard %d is not byte-identical to the one the golden manifest was written for", i)
			}
		}
	})
}

// TestEngineEmptyObject: an empty payload — declared (size 0) or
// discovered (unknown size, immediate EOF) — still yields one all-zero
// stripe on every shard and decodes back to zero bytes.
func TestEngineEmptyObject(t *testing.T) {
	for name, size := range map[string]int64{"size 0": 0, "unknown size": -1} {
		t.Run(name, func(t *testing.T) {
			eachInstantiation(t, func(t *testing.T, s shardSet) {
				m, err := s.write(bytes.NewReader(nil), size)
				if err != nil {
					t.Fatal(err)
				}
				if m.FileSize != 0 || m.Stripes != 1 {
					t.Fatalf("empty object: FileSize=%d Stripes=%d, want 0 and 1", m.FileSize, m.Stripes)
				}
				for i := 0; i < tk+tr; i++ {
					if !bytes.Equal(s.shard(t, i), make([]byte, tunit)) {
						t.Fatalf("shard %d of an empty object is not one zero unit", i)
					}
				}
				sr, err := s.open(m, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer sr.Close()
				var out bytes.Buffer
				if _, err := sr.Decode(&out, 0); err != nil || out.Len() != 0 {
					t.Fatalf("decode of empty object: %d bytes, err=%v", out.Len(), err)
				}
			})
		})
	}
}

// TestEngineRangeWindows: a reader opened over a window serves exactly the
// window — prefix of the first covering stripe trimmed, pipeline stopped
// at the last — clean and reconstructing around a lost shard, whether the
// sources seek to their intervals (files) or were fetched cut to them
// (streams).
func TestEngineRangeWindows(t *testing.T) {
	const stripeBytes = tk * tunit
	raw := goldenPayload() // 2 full stripes + 1234 bytes
	size := int64(len(raw))
	windows := []struct{ off, n int64 }{
		{0, 1}, {0, size}, {5, stripeBytes}, {stripeBytes - 1, 2},
		{stripeBytes, stripeBytes}, {2*stripeBytes + 7, 100}, {size - 1, 1}, {tunit - 3, stripeBytes + 11},
	}
	eachInstantiation(t, func(t *testing.T, s shardSet) {
		m, err := s.write(bytes.NewReader(raw), size)
		if err != nil {
			t.Fatal(err)
		}
		for _, lost := range []int{-1, 1} {
			if lost >= 0 {
				s.lose(lost)
			}
			for _, w := range windows {
				sr, err := s.open(m, w.off, w.n)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				_, err = sr.Decode(&out, 0)
				sr.Close()
				if err != nil || !bytes.Equal(out.Bytes(), raw[w.off:w.off+w.n]) {
					t.Fatalf("lost=%d window [%d,+%d): %d bytes back, err=%v", lost, w.off, w.n, out.Len(), err)
				}
				if lost >= 0 && !reflect.DeepEqual(sr.Unusable(), []int{lost}) {
					t.Fatalf("lost=%d window [%d,+%d): Unusable=%v", lost, w.off, w.n, sr.Unusable())
				}
			}
		}
		// A window the sources do not cover comes up short — reported, not
		// served as a silent prefix. Stream bodies arrive one byte short;
		// files are immune (they hold the whole shard).
		if ss, ok := s.(*streamSet); ok {
			ss.short = 1
			sr, err := ss.open(m, 0, stripeBytes+1)
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()
			if _, err := sr.Decode(io.Discard, 0); err == nil {
				t.Fatal("range decode over truncated sources reported success")
			}
		}
	})
}

// TestEngineRepair pins the repair core's contract once, over both
// instantiations: damage is found per (shard, stripe) cell, at most r
// cells of a stripe may be bad, healed shards come back byte-identical,
// and a repair that fails or is canceled commits nothing.
func TestEngineRepair(t *testing.T) {
	type cell struct{ shard, stripe int }
	cases := []struct {
		name   string
		lose   []int
		rot    []cell
		tamper []int // shards whose manifest checksum is falsified
		cancel bool
		healed []int
		errs   []error
	}{
		{name: "clean"},
		{name: "missing shard", lose: []int{1}, healed: []int{1}},
		{name: "one rotten cell", rot: []cell{{4, 2}}, healed: []int{4}},
		{name: "more than r shards rotten in distinct stripes", lose: []int{5},
			rot: []cell{{0, 0}, {1, 1}, {2, 2}, {3, 3}}, healed: []int{0, 1, 2, 3, 5}},
		{name: "r+1 cells of one stripe", lose: []int{0}, rot: []cell{{2, 1}, {3, 1}},
			errs: []error{gemmec.ErrTooFewShards, gemmec.ErrCorruptShard}},
		{name: "r+1 shards missing", lose: []int{0, 1, 2}, errs: []error{gemmec.ErrTooFewShards}},
		{name: "cancel mid-repair", lose: []int{3}, cancel: true, errs: []error{context.Canceled}},
		{name: "rebuilt unit fails its manifest sum", lose: []int{2}, tamper: []int{2}, errs: []error{gemmec.ErrCorruptShard}},
	}
	raw := make([]byte, 4*tk*tunit-9) // 4 stripes
	for i := range raw {
		raw[i] = byte(i*31 + i>>8)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eachInstantiation(t, func(t *testing.T, s shardSet) {
				m, err := s.write(bytes.NewReader(raw), int64(len(raw)))
				if err != nil {
					t.Fatal(err)
				}
				orig := make([][]byte, tk+tr)
				for i := range orig {
					orig[i] = append([]byte(nil), s.shard(t, i)...)
				}
				for _, i := range c.tamper {
					m.StripeSums[i][1] ^= 1
				}
				for _, r := range c.rot {
					s.rot(t, r.shard, r.stripe)
				}
				for _, i := range c.lose {
					s.lose(i)
				}
				healed, err := s.repair(m, c.cancel)
				for _, want := range c.errs {
					if !errors.Is(err, want) {
						t.Errorf("repair error = %v, want it to wrap %v", err, want)
					}
				}
				if c.errs != nil {
					if fs, ok := s.(*fileSet); ok { // nothing committed, nothing left behind
						ents, _ := os.ReadDir(filepath.Dir(fs.paths[0]))
						if len(ents) != tk+tr-len(c.lose) {
							t.Errorf("failed repair left %d files in the set's directory, want the %d it found", len(ents), tk+tr-len(c.lose))
						}
					}
					return
				}
				if err != nil || !reflect.DeepEqual(healed, c.healed) {
					t.Fatalf("healed %v (err %v), want %v", healed, err, c.healed)
				}
				for i := range orig {
					if !bytes.Equal(s.shard(t, i), orig[i]) {
						t.Errorf("shard %d is not byte-identical to the original after repair", i)
					}
				}
				if again, err := s.repair(m, false); err != nil || again != nil {
					t.Errorf("second repair healed %v (err %v), want a clean no-op", again, err)
				}
			})
		})
	}
}
