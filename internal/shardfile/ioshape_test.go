package shardfile

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gemmec/internal/vfs"
)

// shapeFS records the size of every Read and Write that reaches a shard
// file, keyed by shard path — what the bufio layers above it let through.
type shapeFS struct {
	vfs.FS
	mu        sync.Mutex
	reads     map[string][]int // bytes asked for, per call
	writes    map[string][]int
	readBytes int64
}

func newShapeFS() *shapeFS {
	return &shapeFS{FS: vfs.OS, reads: map[string][]int{}, writes: map[string][]int{}}
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
	f.fs.mu.Lock()
	f.fs.writes[f.path] = append(f.fs.writes[f.path], len(p))
	f.fs.mu.Unlock()
	return f.File.Write(p)
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
	m, _, err := WriteStreamPaths(paths, bytes.NewReader(raw), int64(size), tk, tr, unit, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStreamPaths(paths, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	dst := &firstWriteProbe{fs: fs}
	if _, err := sr.Decode(dst, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), raw) {
		t.Fatal("content mismatch")
	}
	return fs, paths, dst
}

// TestUnitSizedIOBypassesBuffers: at the default 128 KiB unit no bufio
// layer copies payload — every shard-file write and read is exactly one
// unit — and the first decoded byte leaves after one stripe of shard
// reads instead of waiting for an output buffer to fill.
func TestUnitSizedIOBypassesBuffers(t *testing.T) {
	const unit, size = 128 << 10, 8 << 20
	stripes := size / (tk * unit)
	fs, paths, dst := shapeRoundTrip(t, unit, size)
	for _, p := range paths {
		for op, calls := range map[string][]int{"write": fs.writes[p], "read": fs.reads[p]} {
			if len(calls) != stripes {
				t.Errorf("%s: %d %ss for %d stripes", filepath.Base(p), len(calls), op, stripes)
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
