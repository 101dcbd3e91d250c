package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"gemmec"
	"gemmec/internal/peer"
	"gemmec/internal/server"
	"gemmec/internal/vfs"
)

// The wrappers in this file are the traced run's only instrumentation:
// each sits on a seam the program already exports (http.Handler,
// server.Backend, vfs.FS, peer.Transport), records one span per call into
// a recorder, counts work at the same boundary, and otherwise passes
// arguments, results, byte counts and errors through unchanged. Untraced
// stacks are built without them.

// ---- http.Handler ----

type tracedHandler struct {
	inner http.Handler
	rec   *recorder
	layer string
}

// countingResponse counts body bytes and keeps Flush reachable: the
// daemon's GET path streams chunked and flushes through its own wrapper.
type countingResponse struct {
	http.ResponseWriter
	bytes int64
}

func (c *countingResponse) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.bytes += int64(n)
	return n, err
}

func (c *countingResponse) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingResponse{ResponseWriter: w}
	name := strings.ToLower(r.Method)
	if r.Method == http.MethodGet && r.Header.Get("Range") != "" {
		name = "range_get"
	}
	start := time.Now()
	h.inner.ServeHTTP(cw, r)
	n := cw.bytes
	if r.Method == http.MethodPut || r.Method == http.MethodPatch {
		n = max(r.ContentLength, 0)
	}
	h.rec.add(h.layer, name, start, time.Now(), n)
}

// ---- server.Backend ----

// tracedBackend wraps a Store or a Gateway. It also forwards the optional
// RangeOpener and Patcher surfaces, which both backends implement and the
// HTTP layer discovers by type assertion.
type tracedBackend struct {
	inner interface {
		server.Backend
		server.RangeOpener
		server.Patcher
	}
	rec   *recorder
	layer string
}

func (b *tracedBackend) Scheduler() *gemmec.Scheduler                  { return b.inner.Scheduler() }
func (b *tracedBackend) StatAll() ([]server.ObjectMeta, error)         { return b.inner.StatAll() }
func (b *tracedBackend) StatusSnapshot() any                           { return b.inner.StatusSnapshot() }
func (b *tracedBackend) ScrubAll(c context.Context) server.ScrubReport { return b.inner.ScrubAll(c) }

// streamCounters records where one stream waited, as fractions of its
// elapsed time (the pipeline.*_stall_frac metrics are medians of these).
func (b *tracedBackend) streamCounters(op string, st gemmec.StreamStats) {
	if st.Elapsed <= 0 {
		return
	}
	el := float64(st.Elapsed)
	b.rec.count("pipeline."+op+"_read_stall_frac", float64(st.ReadStall)/el)
	b.rec.count("pipeline."+op+"_kernel_stall_frac", float64(st.EncodeStall)/el)
	b.rec.count("pipeline."+op+"_write_stall_frac", float64(st.WriteStall)/el)
}

func (b *tracedBackend) Put(ctx context.Context, name string, src io.Reader, size int64) (server.ObjectMeta, gemmec.StreamStats, error) {
	start := time.Now()
	meta, st, err := b.inner.Put(ctx, name, src, size)
	b.rec.add(b.layer, "put", start, time.Now(), meta.Size())
	if err == nil {
		b.streamCounters("put", st)
	}
	return meta, st, err
}

func (b *tracedBackend) Open(ctx context.Context, name string) (server.ObjectStream, error) {
	start := time.Now()
	o, err := b.inner.Open(ctx, name)
	b.rec.add(b.layer, "open", start, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	return &tracedStream{ObjectStream: o, b: b, op: "get"}, nil
}

func (b *tracedBackend) OpenRange(ctx context.Context, name string, off, length int64) (server.RangedStream, error) {
	start := time.Now()
	o, err := b.inner.OpenRange(ctx, name, off, length)
	b.rec.add(b.layer, "open_range", start, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	return &tracedRanged{tracedStream: tracedStream{ObjectStream: o, b: b, op: "range_get"}, ranged: o}, nil
}

func (b *tracedBackend) Patch(ctx context.Context, name string, data []byte, off int64) (server.ObjectMeta, server.PatchStats, error) {
	start := time.Now()
	meta, ps, err := b.inner.Patch(ctx, name, data, off)
	b.rec.add(b.layer, "patch", start, time.Now(), int64(len(data)))
	return meta, ps, err
}

func (b *tracedBackend) Delete(ctx context.Context, name string) error {
	start := time.Now()
	err := b.inner.Delete(ctx, name)
	b.rec.add(b.layer, "delete", start, time.Now(), 0)
	return err
}

type tracedStream struct {
	server.ObjectStream
	b  *tracedBackend
	op string
}

func (s *tracedStream) Stream(dst io.Writer) (gemmec.StreamStats, error) {
	start := time.Now()
	st, err := s.ObjectStream.Stream(dst)
	s.b.rec.add(s.b.layer, "stream", start, time.Now(), st.BytesOut)
	if err == nil && s.op == "get" {
		s.b.streamCounters("get", st)
	}
	return st, err
}

func (s *tracedStream) Close() error {
	start := time.Now()
	err := s.ObjectStream.Close()
	s.b.rec.add(s.b.layer, "close", start, time.Now(), 0)
	return err
}

type tracedRanged struct {
	tracedStream
	ranged server.RangedStream
}

func (s *tracedRanged) Range() (off, length int64) { return s.ranged.Range() }

// ---- vfs.FS ----

// tracedFS sees the work the Store pushes through its filesystem seam:
// shard files only — object metadata and patch journals go through package
// os (see internal/vfs) and are not seen here.
type tracedFS struct {
	inner vfs.FS
	rec   *recorder
}

func (f *tracedFS) file(name string, open func(string) (vfs.File, error), op string) (vfs.File, error) {
	start := time.Now()
	file, err := open(name)
	f.rec.add(layerFS, op, start, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) Open(name string) (vfs.File, error) {
	return f.file(name, f.inner.Open, "open")
}
func (f *tracedFS) OpenRW(name string) (vfs.File, error) {
	return f.file(name, f.inner.OpenRW, "open_rw")
}
func (f *tracedFS) Create(name string) (vfs.File, error) {
	return f.file(name, f.inner.Create, "create")
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := f.inner.Rename(oldpath, newpath)
	f.rec.add(layerFS, "rename", start, time.Now(), 0)
	return err
}

func (f *tracedFS) Remove(name string) error {
	start := time.Now()
	err := f.inner.Remove(name)
	f.rec.add(layerFS, "remove", start, time.Now(), 0)
	return err
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := f.inner.ReadFile(name)
	f.rec.add(layerFS, "read_file", start, time.Now(), int64(len(b)))
	return b, err
}

func (f *tracedFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	start := time.Now()
	err := f.inner.WriteFile(name, data, perm)
	f.rec.add(layerFS, "write_file", start, time.Now(), int64(len(data)))
	return err
}

type tracedFile struct {
	vfs.File
	fs *tracedFS
}

func (t *tracedFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.File.Read(p)
	t.fs.rec.add(layerFS, "read", start, time.Now(), int64(n))
	t.fs.rec.sampleQueue()
	return n, err
}

func (t *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.File.Write(p)
	t.fs.rec.add(layerFS, "write", start, time.Now(), int64(n))
	t.fs.rec.sampleQueue()
	return n, err
}

func (t *tracedFile) Close() error {
	start := time.Now()
	err := t.File.Close()
	t.fs.rec.add(layerFS, "close", start, time.Now(), 0)
	return err
}

// ---- peer.Transport ----

type tracedTransport struct {
	inner peer.Transport
	rec   *recorder
}

// done records one finished RPC.
func (t *tracedTransport) done(name string, start time.Time, bytes int64) {
	t.rec.add(layerPeer, name, start, time.Now(), bytes)
	t.rec.sampleQueue()
}

// Healthy forwards the health hint the gateway looks for on its transports.
func (t *tracedTransport) Healthy() bool {
	if h, ok := t.inner.(interface{ Healthy() bool }); ok {
		return h.Healthy()
	}
	return true
}

func (t *tracedTransport) PutShard(ctx context.Context, key string, gen uint64, idx int, size int64, body io.Reader) error {
	start := time.Now()
	err := t.inner.PutShard(ctx, key, gen, idx, size, body)
	t.done("put_shard", start, max(size, 0))
	return err
}

// tracedBody ends a get-shard span when the gateway closes the body, so
// the span covers the transfer and not just the open.
type tracedBody struct {
	io.ReadCloser
	t     *tracedTransport
	name  string
	start time.Time
	bytes int64
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.bytes += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.t.done(b.name, b.start, b.bytes)
	return err
}

func (t *tracedTransport) GetShard(ctx context.Context, key string, gen uint64, idx int) (io.ReadCloser, int64, error) {
	start := time.Now()
	body, size, err := t.inner.GetShard(ctx, key, gen, idx)
	if err != nil {
		t.done("get_shard", start, 0)
		return nil, size, err
	}
	return &tracedBody{ReadCloser: body, t: t, name: "get_shard", start: start}, size, nil
}

func (t *tracedTransport) GetShardRange(ctx context.Context, key string, gen uint64, idx int, off, length int64) (io.ReadCloser, int64, error) {
	start := time.Now()
	body, size, err := t.inner.GetShardRange(ctx, key, gen, idx, off, length)
	if err != nil {
		t.done("get_shard_range", start, 0)
		return nil, size, err
	}
	return &tracedBody{ReadCloser: body, t: t, name: "get_shard_range", start: start}, size, nil
}

func (t *tracedTransport) StatShard(ctx context.Context, key string, gen uint64, idx int) (int64, error) {
	start := time.Now()
	size, err := t.inner.StatShard(ctx, key, gen, idx)
	t.done("stat_shard", start, 0)
	return size, err
}

func (t *tracedTransport) DeleteShard(ctx context.Context, key string, gen uint64, idx int) error {
	start := time.Now()
	err := t.inner.DeleteShard(ctx, key, gen, idx)
	t.done("delete_shard", start, 0)
	return err
}

func (t *tracedTransport) DeleteObject(ctx context.Context, key string) error {
	start := time.Now()
	err := t.inner.DeleteObject(ctx, key)
	t.done("delete_object", start, 0)
	return err
}

func (t *tracedTransport) PutMeta(ctx context.Context, key string, meta []byte) error {
	start := time.Now()
	err := t.inner.PutMeta(ctx, key, meta)
	t.done("put_meta", start, int64(len(meta)))
	return err
}

func (t *tracedTransport) GetMeta(ctx context.Context, key string) ([]byte, error) {
	start := time.Now()
	b, err := t.inner.GetMeta(ctx, key)
	t.done("get_meta", start, int64(len(b)))
	return b, err
}

func (t *tracedTransport) ListMeta(ctx context.Context) ([]string, error) {
	start := time.Now()
	keys, err := t.inner.ListMeta(ctx)
	t.done("list_meta", start, 0)
	return keys, err
}

func (t *tracedTransport) Ping(ctx context.Context) error {
	start := time.Now()
	err := t.inner.Ping(ctx)
	t.done("ping", start, 0)
	return err
}
