package shardfile

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gemmec/internal/vfs"
)

// shapeFS records the size of every Read, Write and WriteAt that reaches a
// shard file, keyed by shard path — what the bufio layers above it let through.
type shapeFS struct {
	vfs.FS
	mu        sync.Mutex
	reads     map[string][]int // bytes asked for, per call
	writes    map[string][]int // Write and WriteAt alike
	writeAts  map[string]int   // how many of writes were WriteAt
	readBytes int64
}

func newShapeFS() *shapeFS {
	return &shapeFS{FS: vfs.OS, reads: map[string][]int{}, writes: map[string][]int{}, writeAts: map[string]int{}}
}

type shapeFile struct {
	vfs.File
	fs   *shapeFS
	path string
}

func (fs *shapeFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &shapeFile{File: f, fs: fs, path: strings.TrimSuffix(f.Name(), ".tmp")}, nil
}

func (fs *shapeFS) Open(name string) (vfs.File, error)   { return fs.wrap(fs.FS.Open(name)) }
func (fs *shapeFS) Create(name string) (vfs.File, error) { return fs.wrap(fs.FS.Create(name)) }

func (f *shapeFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.mu.Lock()
	f.fs.reads[f.path] = append(f.fs.reads[f.path], len(p))
	f.fs.readBytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *shapeFile) Write(p []byte) (int, error) {
	f.fs.wrote(f.path, len(p), false)
	return f.File.Write(p)
}

// WriteAt counts as a write too: unit-sized encodes write each unit at its
// stripe's offset from the kernel task that coded it.
func (f *shapeFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.wrote(f.path, len(p), true)
	return f.File.WriteAt(p, off)
}

func (fs *shapeFS) wrote(path string, n int, at bool) {
	fs.mu.Lock()
	fs.writes[path] = append(fs.writes[path], n)
	if at {
		fs.writeAts[path]++
	}
	fs.mu.Unlock()
}

func (fs *shapeFS) bytesRead() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.readBytes
}

// firstWriteProbe notes how many shard bytes had been read when the
// decoded payload's first Write arrived.
type firstWriteProbe struct {
	bytes.Buffer
	fs       *shapeFS
	seen     bool
	readUpTo int64
}

func (w *firstWriteProbe) Write(p []byte) (int, error) {
	if !w.seen {
		w.seen, w.readUpTo = true, w.fs.bytesRead()
	}
	return w.Buffer.Write(p)
}

// shapeRoundTrip writes a payload of the given size through a shapeFS and
// decodes it back serially (workers = 1, so read and write order is exact).
func shapeRoundTrip(t *testing.T, unit, size int) (*shapeFS, []string, *firstWriteProbe) {
	t.Helper()
	raw := make([]byte, size)
	rand.New(rand.NewSource(int64(unit))).Read(raw)
	dir := t.TempDir()
	paths := make([]string, tk+tr)
	for i := range paths {
		paths[i] = filepath.Join(dir, ShardPath("", i))
	}
	fs := newShapeFS()
	opt := Opts{FS: fs}
	m, _, err := WriteStreamPaths(paths, bytes.NewReader(raw), int64(size), tk, tr, unit, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStreamPaths(paths, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	dst := &firstWriteProbe{fs: fs}
	if _, err := sr.Decode(dst, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), raw) {
		t.Fatal("content mismatch")
	}
	return fs, paths, dst
}

// TestUnitSizedIOBypassesBuffers: at the default 128 KiB unit no bufio
// layer copies payload — every shard-file write and read is exactly one
// unit, and a clean decode reads the data shards only — and the first
// decoded byte leaves after one stripe of shard reads instead of waiting
// for an output buffer to fill.
func TestUnitSizedIOBypassesBuffers(t *testing.T) {
	const unit, size = 128 << 10, 8 << 20
	stripes := size / (tk * unit)
	fs, paths, dst := shapeRoundTrip(t, unit, size)
	for i, p := range paths {
		for op, calls := range map[string][]int{"write": fs.writes[p], "read": fs.reads[p]} {
			want := stripes
			if op == "read" && i >= tk {
				want = 0 // parity: written, never read by a clean decode
			}
			if len(calls) != want {
				t.Errorf("%s: %d %ss for %d stripes, want %d", filepath.Base(p), len(calls), op, stripes, want)
			}
			for _, n := range calls {
				if n != unit {
					t.Fatalf("%s: a %s of %d bytes; want whole %d-byte units only", filepath.Base(p), op, n, unit)
				}
			}
		}
	}
	if oneStripe := int64((tk + tr) * unit); dst.readUpTo > oneStripe {
		t.Errorf("first payload write came after %d shard bytes read; want <= one stripe (%d)", dst.readUpTo, oneStripe)
	}
}

// TestSmallUnitsStillCoalesced: at 4 KiB units the buffers earn their
// keep — a shard costs about one syscall per streamBufSize, not one per
// unit.
func TestSmallUnitsStillCoalesced(t *testing.T) {
	const unit, size = 4 << 10, 1 << 20
	shardBytes := size / tk
	limit := (shardBytes+streamBufSize-1)/streamBufSize + 1
	fs, paths, _ := shapeRoundTrip(t, unit, size)
	for _, p := range paths {
		if n := len(fs.writes[p]); n > limit {
			t.Errorf("%s: %d writes for %d bytes; want <= %d", filepath.Base(p), n, shardBytes, limit)
		}
		if n := len(fs.reads[p]); n > limit {
			t.Errorf("%s: %d reads for %d bytes; want <= %d", filepath.Base(p), n, shardBytes, limit)
		}
	}
}

// TestPositionedEncodeMatchesStreamed: a unit-sized file encode, whose
// kernel tasks write each unit at its stripe's offset, is indistinguishable
// from the streamed encode into in-order writers — byte-identical shards
// and an identical Manifest, stripe sums included — for empty, tiny,
// stripe-edge and many-stripe payloads, of known or unknown size, queued
// or inline. The counting filesystem proves the positioned path ran: every
// shard-file write is a whole-unit WriteAt, one per stripe.
func TestPositionedEncodeMatchesStreamed(t *testing.T) {
	const unit = streamBufSize
	stripe := tk * unit
	for _, size := range []int{0, 1, stripe, stripe + 1, 16*stripe + 7} {
		raw := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(raw)
		for _, declared := range []int64{int64(size), -1} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("size=%d/declared=%d/workers=%d", size, declared, workers), func(t *testing.T) {
					bufs := make([]bytes.Buffer, tk+tr)
					ws := make([]io.Writer, tk+tr)
					for i := range bufs {
						ws[i] = &bufs[i]
					}
					want, _, err := WriteStreamTo(ws, bytes.NewReader(raw), declared, tk, tr, unit, withWorkers(Opts{}, workers))
					if err != nil {
						t.Fatal(err)
					}
					paths := DirPaths(t.TempDir(), tk+tr)
					fs := newShapeFS()
					got, _, err := WriteStreamPaths(paths, bytes.NewReader(raw), declared, tk, tr, unit, 0, withWorkers(Opts{FS: fs}, workers))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("positioned manifest %+v, streamed %+v", got, want)
					}
					for i, p := range paths {
						b, err := os.ReadFile(p)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(b, bufs[i].Bytes()) {
							t.Fatalf("shard %d: positioned file differs from the streamed shard", i)
						}
						if n := fs.writeAts[p]; n != want.Stripes || len(fs.writes[p]) != n {
							t.Errorf("shard %d: %d WriteAts of %d writes for %d stripes; want one WriteAt per stripe",
								i, n, len(fs.writes[p]), want.Stripes)
						}
					}
				})
			}
		}
	}
}

// TestReadPlanIOShape: a decode reads what it returns. Through a counting
// filesystem: a clean window inside one unit reads one shard file and at
// most that unit; a clean whole-object read never reads a parity file; a
// unit in the window that fails its checksum costs at most k more units
// of its stripe (the k cheapest survivors), and so does one the open-time
// probe already found missing.
func TestReadPlanIOShape(t *testing.T) {
	const stripes = 8
	raw := make([]byte, stripes*tk*tunit)
	rand.New(rand.NewSource(5)).Read(raw)
	paths := DirPaths(t.TempDir(), tk+tr)
	m, _, err := WriteStreamPaths(paths, bytes.NewReader(raw), int64(len(raw)), tk, tr, tunit, 0, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// read decodes [off, off+n) through a fresh counting filesystem.
	read := func(off, n int64) (*shapeFS, *StreamReader) {
		t.Helper()
		fs := newShapeFS()
		sr, err := OpenRangePaths(paths, m, off, n, withWorkers(Opts{FS: fs}, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer sr.Close()
		var out bytes.Buffer
		if _, err := sr.Decode(&out, 0); err != nil || !bytes.Equal(out.Bytes(), raw[off:off+n]) {
			t.Fatalf("[%d,+%d): %d bytes back, err=%v", off, n, out.Len(), err)
		}
		return fs, sr
	}
	// A window inside shard 2's unit of stripe 3.
	off, n := int64(3*tk*tunit+2*tunit+5), int64(100)

	fs, _ := read(off, n)
	if len(fs.reads) != 1 || len(fs.reads[paths[2]]) == 0 || fs.bytesRead() > tunit {
		t.Errorf("clean one-unit window read %d bytes from %d files (%v), want at most one unit of shard 2 only",
			fs.bytesRead(), len(fs.reads), fs.reads)
	}

	fs, _ = read(0, int64(len(raw)))
	for _, p := range paths[tk:] {
		if len(fs.reads[p]) > 0 {
			t.Errorf("clean whole-object read touched parity file %s", filepath.Base(p))
		}
	}
	if fs.bytesRead() != int64(len(raw)) {
		t.Errorf("clean whole-object read moved %d shard bytes for a %d-byte payload", fs.bytesRead(), len(raw))
	}

	b, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	b[3*tunit+9] ^= 0x10
	if err := os.WriteFile(paths[2], b, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, sr := read(off, n)
	if dems := sr.Demoted(); len(dems) != 1 || dems[0].Shard != 2 || dems[0].Stripe != 3 {
		t.Errorf("rotten unit in the window: demotions %+v, want shard 2 at stripe 3", dems)
	}
	if got := fs.bytesRead(); got > (1+tk)*tunit {
		t.Errorf("a fault inside the window read %d bytes, want at most the faulty unit plus k=%d more (%d)", got, tk, (1+tk)*tunit)
	}

	if err := os.Remove(paths[2]); err != nil {
		t.Fatal(err)
	}
	fs, sr = read(off, n)
	if got := sr.Unusable(); len(got) != 1 || got[0] != 2 || len(sr.Demoted()) != 0 {
		t.Errorf("missing shard: Unusable=%v Demoted=%v, want [2] and none", got, sr.Demoted())
	}
	if got := fs.bytesRead(); got != tk*tunit {
		t.Errorf("a window on a missing shard read %d bytes, want exactly k=%d units (%d)", got, tk, tk*tunit)
	}
}

// statShapeFS counts the opens and stats that reach shard files. Unlike
// shapeFS it implements vfs.StatFS, so the probe of a shard the plan does
// not read is one Stat instead of an open, a stat and a close.
type statShapeFS struct {
	vfs.FS
	mu           sync.Mutex
	opens, stats map[string]int
}

func newStatShapeFS() *statShapeFS {
	return &statShapeFS{FS: vfs.OS, opens: map[string]int{}, stats: map[string]int{}}
}

func (fs *statShapeFS) Open(name string) (vfs.File, error) {
	fs.mu.Lock()
	fs.opens[name]++
	fs.mu.Unlock()
	return fs.FS.Open(name)
}

func (fs *statShapeFS) Stat(name string) (os.FileInfo, error) {
	fs.mu.Lock()
	fs.stats[name]++
	fs.mu.Unlock()
	return vfs.Stat(fs.FS, name)
}

// TestReadPlanProbeStats: through a filesystem that can stat, the open of
// a clean one-unit window opens the one file it reads and stats each of
// the other k+r-1 once, and the stat alone still finds what the probe
// always found: a missing unread shard is unusable and a truncated one
// corrupt, before a byte is read.
func TestReadPlanProbeStats(t *testing.T) {
	const stripes = 8
	raw := make([]byte, stripes*tk*tunit)
	rand.New(rand.NewSource(6)).Read(raw)
	paths := DirPaths(t.TempDir(), tk+tr)
	m, _, err := WriteStreamPaths(paths, bytes.NewReader(raw), int64(len(raw)), tk, tr, tunit, 0, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// A window inside shard 2's unit of stripe 3.
	off, n := int64(3*tk*tunit+2*tunit+5), int64(100)
	open := func() (*statShapeFS, *StreamReader) {
		t.Helper()
		fs := newStatShapeFS()
		sr, err := OpenRangePaths(paths, m, off, n, Opts{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sr.Close() })
		return fs, sr
	}

	fs, sr := open()
	if len(fs.opens) != 1 || fs.opens[paths[2]] != 1 {
		t.Errorf("clean one-unit window opened %v, want shard 2 once", fs.opens)
	}
	if len(fs.stats) != tk+tr-1 || fs.stats[paths[2]] != 0 {
		t.Errorf("clean one-unit window stat-ed %v, want each of the other %d shards once", fs.stats, tk+tr-1)
	}
	for p, c := range fs.stats {
		if c != 1 {
			t.Errorf("%s stat-ed %d times, want once", filepath.Base(p), c)
		}
	}
	var out bytes.Buffer
	if _, err := sr.Decode(&out, 0); err != nil || !bytes.Equal(out.Bytes(), raw[off:off+n]) {
		t.Fatalf("clean window: %d bytes back, err=%v", out.Len(), err)
	}
	if len(fs.opens) != 1 || sr.Degraded() {
		t.Errorf("clean decode opened %v (degraded %v), want shard 2 only", fs.opens, sr.Degraded())
	}

	// Lose data shard 0 and truncate parity shard 5: neither is read by the
	// plan, and the stats alone must report both at open.
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(paths[5], tunit); err != nil {
		t.Fatal(err)
	}
	fs, sr = open()
	if got := sr.Unusable(); !reflect.DeepEqual(got, []int{0, 5}) {
		t.Errorf("missing shard 0, truncated shard 5: Unusable()=%v at open, want [0 5]", got)
	}
	if got := sr.Corrupt(); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("truncated shard 5: Corrupt()=%v at open, want [5]", got)
	}
	if len(fs.opens) != 1 || fs.stats[paths[0]] != 1 || fs.stats[paths[5]] != 1 {
		t.Errorf("degraded open: opens %v, stats %v; want shard 2 opened and the rest stat-ed", fs.opens, fs.stats)
	}
	out.Reset()
	if _, err := sr.Decode(&out, 0); err != nil || !bytes.Equal(out.Bytes(), raw[off:off+n]) {
		t.Fatalf("window with unread shards lost: %d bytes back, err=%v", out.Len(), err)
	}
}
