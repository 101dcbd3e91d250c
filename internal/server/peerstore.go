package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gemmec/internal/peer"
)

// PeerStore is the peer role's local shard storage: the flat
// (key, generation, shard-index) → file layout behind the internal
// shard-transfer API. Unlike Store — which owns whole objects and
// stripes them across its node directories — a PeerStore holds whatever
// individual shards the cluster's placement assigned this member, plus a
// replica of every object's metadata (the gateway broadcasts metadata to
// all members so any of them can serve as gateway after a failure).
//
// All writes are atomic (temp file + rename): a torn upload — the wire
// analogue of PR 5's torn chunked body — aborts and leaves nothing, so a
// shard file either exists whole or not at all. Keys are validated as
// hex strings before touching the filesystem, which both rejects path
// traversal and keeps the namespace aligned with Store.objKey.
//
// An overwrite's superseded shard files are recycled, not unlinked: they
// wait in a small pool (root/free) and the next shard upload is written
// into one of them, so its fsync overwrites blocks that are already
// allocated instead of paying for allocation and its journal commit.
type PeerStore struct {
	root string

	// mu guards the recycling state: the pool, the open readers of each
	// shard path (a held file is never recycled), and the concurrent shard
	// writes whose high-water mark caps the pool.
	mu                  sync.Mutex
	pool                []pooledFile
	readers             map[string]int
	writing, writesPeak int
	seq                 atomic.Uint64 // names pool files and recycled temps

	shardPuts, shardGets atomic.Int64
	bytesIn, bytesOut    atomic.Int64

	// writeback and fsync are startWriteback and (*os.File).Sync, the two
	// calls by which a write reaches the disk; tests wrap them to see in
	// what order an upload's windows, fsyncs and names land.
	writeback func(f *os.File, off, n int64)
	fsync     func(f *os.File) error
}

// pooledFile is one recycled shard file waiting under root/free.
type pooledFile struct {
	path string
	size int64
}

// OpenPeerStore opens (creating if necessary) the peer shard store
// rooted at root. Shards live under root/shards, metadata replicas under
// root/clustermeta, recycled shard files under root/free — which is
// emptied here: a previous process's pool is nobody's data.
func OpenPeerStore(root string) (*PeerStore, error) {
	ps := &PeerStore{root: root, readers: map[string]int{},
		writeback: startWriteback, fsync: (*os.File).Sync}
	if err := os.RemoveAll(ps.freeDir()); err != nil {
		return nil, err
	}
	for _, dir := range []string{ps.shardDir(), ps.metaDir(), ps.freeDir()} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

func (ps *PeerStore) shardDir() string { return filepath.Join(ps.root, "shards") }
func (ps *PeerStore) metaDir() string  { return filepath.Join(ps.root, "clustermeta") }
func (ps *PeerStore) freeDir() string  { return filepath.Join(ps.root, "free") }

func (ps *PeerStore) shardPath(key string, gen uint64, idx int) string {
	return filepath.Join(ps.shardDir(), fmt.Sprintf("%s.g%d.shard_%03d", key, gen, idx))
}

func (ps *PeerStore) metaPath(key string) string {
	return filepath.Join(ps.metaDir(), key+".json")
}

// validPeerKey accepts only store object keys: non-empty hex strings.
// Everything else — path separators, dots, reserved slab names — is
// rejected before any path is formed.
func validPeerKey(key string) error {
	if key == "" {
		return fmt.Errorf("%w: empty key", ErrBadObjectName)
	}
	if _, err := hex.DecodeString(key); err != nil {
		return fmt.Errorf("%w: %q is not a hex object key", ErrBadObjectName, key)
	}
	return nil
}

// syncDir fsyncs a directory so a just-committed rename/link inside it
// survives power loss — without it an acked shard upload could vanish in
// a crash, silently voiding the quorum's durability accounting.
func (ps *PeerStore) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = ps.fsync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// PutShard atomically stores one shard body. An error from body (torn
// upload) aborts: the temp file is removed and any previous copy of the
// shard is untouched. The write is crash-durable before it acks (fsync
// of both the file and the directory) and first-writer-wins: an already
// existing (key, gen, idx) rejects with peer.ErrShardExists, so two
// gateways racing the same generation land two disjoint whole-shard
// sets instead of interleaving bytes in one file. Each upload streams
// into its own unique temp file for the same reason. While the body
// still streams, every writebackWindow of it already written is queued
// for writeback, so the closing fsync — which still gates the ack —
// waits only for the tail and what the device has not finished.
func (ps *PeerStore) PutShard(key string, gen uint64, idx int, body io.Reader) (int64, error) {
	return ps.putShard(key, gen, idx, body, false)
}

// ReplaceShard is PutShard without first-writer-wins: the finished temp
// file is renamed over whatever shard (key, gen, idx) is there, so the old
// one stays readable until the new one is whole and durable, and a torn
// body leaves it untouched. It is how repairs write (peer.Replacer).
func (ps *PeerStore) ReplaceShard(key string, gen uint64, idx int, body io.Reader) (int64, error) {
	return ps.putShard(key, gen, idx, body, true)
}

func (ps *PeerStore) putShard(key string, gen uint64, idx int, body io.Reader, replace bool) (int64, error) {
	if err := validPeerKey(key); err != nil {
		return 0, err
	}
	if idx < 0 || idx > 999 {
		return 0, fmt.Errorf("%w: shard index %d out of range", ErrBadObjectName, idx)
	}
	if err := os.MkdirAll(ps.shardDir(), 0o755); err != nil {
		return 0, err
	}
	dst := ps.shardPath(key, gen, idx)
	if _, err := os.Lstat(dst); err == nil && !replace {
		// Cheap early reject before streaming the body; the Link below is
		// the authoritative race-free check.
		return 0, fmt.Errorf("%w: %s gen %d shard %d", peer.ErrShardExists, key, gen, idx)
	}
	f, recycled, err := ps.createTemp(dst)
	if err != nil {
		return 0, err
	}
	defer ps.endWrite()
	tmp := f.Name()
	buf := copyBufs.Get().(*[]byte)
	n, err := io.CopyBuffer(&writebackWriter{f: f, queue: ps.writeback}, body, *buf)
	copyBufs.Put(buf)
	if err == nil && recycled {
		err = f.Truncate(n) // a longer superseded shard leaves no tail
	}
	if err == nil {
		err = ps.fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	switch {
	case err != nil:
	case replace:
		err = os.Rename(tmp, dst)
	default:
		// Link, not rename: fails with EEXIST if a concurrent writer got
		// there first, which is exactly the first-writer-wins contract.
		if err = os.Link(tmp, dst); errors.Is(err, os.ErrExist) {
			err = fmt.Errorf("%w: %s gen %d shard %d", peer.ErrShardExists, key, gen, idx)
		}
	}
	os.Remove(tmp)
	if err != nil {
		return 0, err
	}
	if err := ps.syncDir(ps.shardDir()); err != nil {
		return 0, err
	}
	ps.shardPuts.Add(1)
	ps.bytesIn.Add(n)
	return n, nil
}

// copyBufs holds putShard's copy buffers, io.Copy's size: without them
// every shard upload allocates its own.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// writebackWindow is how much of an upload putShard writes before it
// queues that stretch for writeback: a constant, not a setting — a 2 MiB
// shard is four windows.
const writebackWindow = 512 << 10

// writebackWriter writes an upload into its temp file from offset 0 and,
// each time another writebackWindow of it has been written, queues that
// window for writeback without waiting. The windows are contiguous and
// disjoint; the open tail, less than a window, is left to the fsync.
type writebackWriter struct {
	f       *os.File
	queue   func(f *os.File, off, n int64)
	written int64 // bytes written to f
	queued  int64 // bytes [0, queued) queued for writeback
}

func (w *writebackWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.written += int64(n)
	for w.written-w.queued >= writebackWindow {
		w.queue(w.f, w.queued, writebackWindow)
		w.queued += writebackWindow
	}
	return n, err
}

// createTemp counts one more shard write in flight (endWrite ends it) and
// opens its unique temp file beside dst: a pooled file renamed there and
// opened without truncation, so the upload overwrites allocated blocks,
// or else a fresh one. recycled tells the caller to truncate to what it
// wrote.
func (ps *PeerStore) createTemp(dst string) (f *os.File, recycled bool, err error) {
	ps.mu.Lock()
	ps.writing++
	ps.writesPeak = max(ps.writesPeak, ps.writing)
	var pf pooledFile
	if n := len(ps.pool); n > 0 {
		pf, ps.pool = ps.pool[n-1], ps.pool[:n-1]
	}
	ps.mu.Unlock()
	if pf.path != "" {
		tmp := fmt.Sprintf("%s.tmp-r%d", dst, ps.seq.Add(1))
		if err := os.Rename(pf.path, tmp); err == nil {
			if f, err := os.OpenFile(tmp, os.O_WRONLY, 0); err == nil {
				return f, true, nil
			}
			os.Remove(tmp)
		} else {
			os.Remove(pf.path)
		}
	}
	f, err = os.CreateTemp(ps.shardDir(), filepath.Base(dst)+".tmp*")
	if err != nil {
		ps.endWrite()
	}
	return f, false, err
}

func (ps *PeerStore) endWrite() {
	ps.mu.Lock()
	ps.writing--
	ps.mu.Unlock()
}

// openShard opens one shard for a reader and reports its size. The
// reader is counted, so that DeleteShard never recycles a file someone
// still reads, until the returned file's Close: the count is taken
// before the open, so a delete either moved the file away first (the
// open fails as not found) or sees the reader and unlinks.
func (ps *PeerStore) openShard(key string, gen uint64, idx int) (*heldFile, int64, error) {
	if err := validPeerKey(key); err != nil {
		return nil, 0, err
	}
	path := ps.shardPath(key, gen, idx)
	ps.mu.Lock()
	ps.readers[path]++
	ps.mu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		ps.release(path)
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, peer.ErrShardNotFound
		}
		return nil, 0, err
	}
	h := &heldFile{File: f, ps: ps, path: path}
	fi, err := f.Stat()
	if err != nil {
		h.Close()
		return nil, 0, err
	}
	return h, fi.Size(), nil
}

func (ps *PeerStore) release(path string) {
	ps.mu.Lock()
	if ps.readers[path]--; ps.readers[path] <= 0 {
		delete(ps.readers, path)
	}
	ps.mu.Unlock()
}

// heldFile is an opened shard whose Close also releases its reader count.
type heldFile struct {
	*os.File
	ps     *PeerStore
	path   string
	closed atomic.Bool
}

func (h *heldFile) Close() error {
	if h.closed.Swap(true) {
		return os.ErrClosed
	}
	err := h.File.Close()
	h.ps.release(h.path)
	return err
}

// GetShard opens one shard for reading.
func (ps *PeerStore) GetShard(key string, gen uint64, idx int) (io.ReadCloser, int64, error) {
	h, size, err := ps.openShard(key, gen, idx)
	if err != nil {
		return nil, 0, err
	}
	ps.shardGets.Add(1)
	ps.bytesOut.Add(size)
	return h, size, nil
}

// rangeFile is an opened shard window: a LimitReader over a seeked file
// that still closes the file underneath.
type rangeFile struct {
	io.Reader
	f *heldFile
}

func (r *rangeFile) Close() error { return r.f.Close() }

// GetShardRange opens bytes [off, off+length) of one shard. The window
// is clamped to what the file holds — a shard shorter than the request
// serves what exists (possibly nothing) and the caller, which computed
// the window from the manifest, detects the shortfall from the returned
// size. Only the window's bytes are read from disk: the file is seeked,
// never scanned.
func (ps *PeerStore) GetShardRange(key string, gen uint64, idx int, off, length int64) (io.ReadCloser, int64, error) {
	if off < 0 || length < 0 {
		return nil, 0, fmt.Errorf("%w: negative shard range", ErrBadObjectName)
	}
	h, size, err := ps.openShard(key, gen, idx)
	if err != nil {
		return nil, 0, err
	}
	off = min(off, size)
	length = min(length, size-off)
	if _, err := h.Seek(off, io.SeekStart); err != nil {
		h.Close()
		return nil, 0, err
	}
	ps.shardGets.Add(1)
	ps.bytesOut.Add(length)
	return &rangeFile{Reader: io.LimitReader(h.File, length), f: h}, length, nil
}

// StatShard reports one shard's size.
func (ps *PeerStore) StatShard(key string, gen uint64, idx int) (int64, error) {
	if err := validPeerKey(key); err != nil {
		return 0, err
	}
	fi, err := os.Stat(ps.shardPath(key, gen, idx))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, peer.ErrShardNotFound
		}
		return 0, err
	}
	return fi.Size(), nil
}

// DeleteShard removes one shard generation; missing is not an error.
// When this member's own metadata replica is live at a newer generation
// — the overwrite's reclaim of the generation it replaced — the file is
// recycled into the pool instead (see recycle). Every other delete (a
// tombstone's, a failed write's rollback, a shard with no replica)
// unlinks, so it frees the disk.
func (ps *PeerStore) DeleteShard(key string, gen uint64, idx int) error {
	if err := validPeerKey(key); err != nil {
		return err
	}
	path := ps.shardPath(key, gen, idx)
	if ps.superseded(key, gen) && ps.recycle(path) {
		return nil
	}
	err := os.Remove(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// superseded reports whether this member's metadata replica of key is a
// live document at a generation newer than gen.
func (ps *PeerStore) superseded(key string, gen uint64) bool {
	raw, err := os.ReadFile(ps.metaPath(key))
	if err != nil {
		return false
	}
	var doc struct {
		Gen     int64 `json:"gen"`
		Deleted bool  `json:"deleted"`
	}
	if json.Unmarshal(raw, &doc) != nil || doc.Deleted || doc.Gen <= 0 {
		return false
	}
	return uint64(doc.Gen) > gen
}

// recycle moves the shard file at path into the pool and reports whether
// it did. It declines while a reader holds the file (its bytes must stay
// what the reader opened) and while the pool already holds as many files
// as the most shard writes this store has had in flight at once: traffic,
// not a setting, sizes the pool, so shard moves cannot fill the disk with
// it. The caller unlinks whatever recycle declines.
func (ps *PeerStore) recycle(path string) bool {
	fi, err := os.Lstat(path)
	if err != nil {
		return false
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.readers[path] > 0 || len(ps.pool) >= ps.writesPeak {
		return false
	}
	free := filepath.Join(ps.freeDir(), strconv.FormatUint(ps.seq.Add(1), 10))
	if os.Rename(path, free) != nil {
		return false
	}
	ps.pool = append(ps.pool, pooledFile{path: free, size: fi.Size()})
	return true
}

// DeleteObject removes every shard of every generation of key plus the
// metadata replica. The "." after the hex key cannot occur inside
// another hex key, so the glob never matches a different object.
func (ps *PeerStore) DeleteObject(key string) error {
	if err := validPeerKey(key); err != nil {
		return err
	}
	matches, _ := filepath.Glob(filepath.Join(ps.shardDir(), key+".g*"))
	for _, p := range matches {
		os.Remove(p)
	}
	err := os.Remove(ps.metaPath(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// PutMeta atomically replaces the metadata replica for key. Unlike
// shards, metadata is last-write-wins (the gateway's generation numbers
// order concurrent documents), so this is a plain durable rename: fsync
// of the temp file before the rename and of the directory after, because
// a metadata commit ack that a crash can undo would break the majority-
// read freshness argument.
func (ps *PeerStore) PutMeta(key string, meta []byte) error {
	if err := validPeerKey(key); err != nil {
		return err
	}
	if err := os.MkdirAll(ps.metaDir(), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(ps.metaDir(), key+".json.tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(meta)
	if err == nil {
		err = ps.fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, ps.metaPath(key))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return ps.syncDir(ps.metaDir())
}

// GetMeta fetches the metadata replica for key.
func (ps *PeerStore) GetMeta(key string) ([]byte, error) {
	if err := validPeerKey(key); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(ps.metaPath(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, peer.ErrMetaNotFound
	}
	return b, err
}

// ListMeta returns every metadata key the peer holds, sorted.
func (ps *PeerStore) ListMeta() ([]string, error) {
	ents, err := os.ReadDir(ps.metaDir())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var keys []string
	for _, e := range ents {
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		if validPeerKey(key) != nil {
			continue
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys, nil
}

// WipeShards removes every shard file the peer holds (metadata replicas
// stay) — the "node lost its disk" drill that -rebuild-node recovers
// from, used by tests and the README walkthrough.
func (ps *PeerStore) WipeShards() error {
	if err := os.RemoveAll(ps.shardDir()); err != nil {
		return err
	}
	return os.MkdirAll(ps.shardDir(), 0o755)
}

// PeerStoreStats is a snapshot of the peer role's counters.
type PeerStoreStats struct {
	ShardPuts int64 `json:"shard_puts"`
	ShardGets int64 `json:"shard_gets"`
	BytesIn   int64 `json:"shard_bytes_in"`
	BytesOut  int64 `json:"shard_bytes_out"`
	// PooledFiles and PooledBytes are the superseded shard files waiting
	// under root/free for the next upload, and the disk they hold.
	PooledFiles int64 `json:"pooled_files"`
	PooledBytes int64 `json:"pooled_bytes"`
}

// Stats snapshots the peer store's counters.
func (ps *PeerStore) Stats() PeerStoreStats {
	st := PeerStoreStats{
		ShardPuts: ps.shardPuts.Load(),
		ShardGets: ps.shardGets.Load(),
		BytesIn:   ps.bytesIn.Load(),
		BytesOut:  ps.bytesOut.Load(),
	}
	ps.mu.Lock()
	st.PooledFiles = int64(len(ps.pool))
	for _, pf := range ps.pool {
		st.PooledBytes += pf.size
	}
	ps.mu.Unlock()
	return st
}

// localTransport adapts a PeerStore into a peer.Transport so a gateway
// reaches its own member's shards directly — no loopback socket, no
// serialization — while the rest of the code path stays identical to the
// remote case. It is also the substrate fault-injection tests wrap: a
// peer.FaultTransport around a localTransport gives wire-fault semantics
// with in-process determinism.
type localTransport struct{ ps *PeerStore }

// NewLocalTransport returns a Transport serving ps directly.
func NewLocalTransport(ps *PeerStore) peer.Transport { return localTransport{ps} }

func (t localTransport) PutShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := t.ps.PutShard(key, gen, idx, body)
	return err
}

func (t localTransport) ReplaceShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := t.ps.ReplaceShard(key, gen, idx, body)
	return err
}

func (t localTransport) GetShard(ctx context.Context, key string, gen uint64, idx int) (io.ReadCloser, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return t.ps.GetShard(key, gen, idx)
}

func (t localTransport) GetShardRange(ctx context.Context, key string, gen uint64, idx int, off, length int64) (io.ReadCloser, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return t.ps.GetShardRange(key, gen, idx, off, length)
}

func (t localTransport) StatShard(ctx context.Context, key string, gen uint64, idx int) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return t.ps.StatShard(key, gen, idx)
}

func (t localTransport) DeleteShard(ctx context.Context, key string, gen uint64, idx int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.ps.DeleteShard(key, gen, idx)
}

func (t localTransport) DeleteObject(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.ps.DeleteObject(key)
}

func (t localTransport) PutMeta(ctx context.Context, key string, meta []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.ps.PutMeta(key, meta)
}

func (t localTransport) GetMeta(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.ps.GetMeta(key)
}

func (t localTransport) ListMeta(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.ps.ListMeta()
}

func (t localTransport) Ping(ctx context.Context) error { return ctx.Err() }
