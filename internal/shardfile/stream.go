package shardfile

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
	"time"

	"gemmec"
	"gemmec/internal/ecerr"
	"gemmec/internal/obs"
	"gemmec/internal/vfs"
)

// The shard-stream engine: one encode core (WriteStreamTo), one decode core
// (OpenStreams + StreamReader.Decode) and one repair core (a stripe walk
// over a StreamReader with three clients: Scan, RepairTo, Verify — see
// repair.go). The first two run the pipelined EncodeStream/DecodeStream
// API over per-shard io.Writers / io.ReadClosers; together they own
// everything that is not "where the bytes live" — pooled bufio, stripe
// sums, the at-least-one-stripe rule, size validation, manifest assembly,
// per-unit verification, range windows, demotion bookkeeping, the ≤ r
// erasures-per-stripe repair contract. Two instantiations feed it.
// WriteStreamPaths/OpenStreamPaths/ScrubPaths put a shard file at an
// explicit path per unit (temp + rename; open + stat + seek), so a caller
// can spread the k+r shards of one object across separate "node"
// directories — eccli's single directory and internal/server's Store. The
// cluster Gateway hands the cores its per-peer upload pipes and download
// bodies directly. Both produce and accept the same manifests.

// streamBufSize is the size of every bufio layer on the streaming paths:
// half the default unit. The pipeline moves whole units (shard side) and
// whole stripes (payload side), and bufio passes any read or write at
// least as large as its buffer straight through, so default-geometry I/O
// reaches the file, socket or pipe uncopied — one syscall per unit —
// while the buffer still coalesces small units (a 4 KiB-unit shard stream
// costs one syscall per 16 units, not one each). The size of the I/O
// picks the path; nothing else does.
const streamBufSize = gemmec.DefaultUnitSize / 2

// Opts carries the cross-cutting knobs of the engine's entry points:
// request lifetime, filesystem seam (file instantiation only), per-shard
// read deadline, and the shared scheduler and code source. The zero value
// means "background context, real filesystem, no deadline, per-call
// workers and code".
type Opts struct {
	// Ctx bounds the operation: encode/decode pipelines observe it between
	// stripes (see gemmec.WithStreamContext) and scrubbing checks it
	// between stripe rebuilds. Nil means context.Background().
	Ctx context.Context
	// FS is the filesystem the shard files live on, for the path-based
	// entry points. Nil means the real one; tests substitute
	// internal/faultfs to inject errors, torn writes, latency and stalls.
	FS vfs.FS
	// ShardReadTimeout, when positive, bounds every underlying shard read
	// during decode: a read that exceeds it demotes that shard (cause
	// "stall") and the stream completes degraded instead of hanging on a
	// device that stopped answering. Zero disables the guard (and its
	// extra per-read copy).
	ShardReadTimeout time.Duration
	// Sched, when non-nil, runs the encode/decode kernel stage on this
	// shared worker pool (gemmec.WithStreamScheduler) instead of spawning
	// a per-call pool sized by the workers argument. This is how a server
	// multiplexes every request's stripe work onto one bounded goroutine
	// set; the workers argument is ignored when Sched is set.
	Sched *gemmec.Scheduler
	// Source, when non-nil, supplies shared per-geometry coding state: the
	// compiled *gemmec.Code and the stripe-buffer pool for (k, r, unitSize).
	// Without it every call compiles a fresh code and allocates a fresh
	// ring — correct, but the per-request constant a server wants amortized
	// to zero. internal/tuned's Registry is the serving implementation; it
	// also makes the codes hot-swappable by the background autotuner.
	Source CodeSource
}

// CodeSource supplies shared coding state per stripe geometry. A source
// must return the same Code for the same geometry across calls (that is
// the point — engine, decoder cache and tuned schedule are reused), and
// its StripePool must match (k+r) x unitSize.
type CodeSource interface {
	StreamCode(k, r, unitSize int) (*gemmec.Code, error)
	StreamPool(k, r, unitSize int) (*gemmec.StripePool, error)
}

// code returns the shared code for the geometry when a Source is attached,
// otherwise a freshly built one.
func (o Opts) code(k, r, unitSize int) (*gemmec.Code, error) {
	if o.Source != nil {
		return o.Source.StreamCode(k, r, unitSize)
	}
	return gemmec.New(k, r, gemmec.WithUnitSize(unitSize))
}

// streamOpts translates the worker knob into stream options: the shared
// scheduler when Opts carries one, otherwise a per-call pool of `workers`
// kernel goroutines (0 leaves the library default, GOMAXPROCS capped at
// 8) — plus the shared stripe pool when a Source supplies one.
func (o Opts) streamOpts(k, r, unitSize, workers int) []gemmec.StreamOption {
	opts := make([]gemmec.StreamOption, 0, 5)
	if o.Sched != nil {
		opts = append(opts, gemmec.WithStreamScheduler(o.Sched))
	} else if workers > 0 {
		opts = append(opts, gemmec.WithStreamWorkers(workers)) //nolint:staticcheck // scheduler-less callers (eccli) size a per-call pool
	}
	if o.Source != nil {
		if p, err := o.Source.StreamPool(k, r, unitSize); err == nil && p != nil {
			opts = append(opts, gemmec.WithStreamPool(p))
		}
	}
	return opts
}

// stripeBuf returns one (k+r)*unitSize stripe buffer for a repair walk —
// from the shared pool when a Source supplies one — and its release.
func (o Opts) stripeBuf(k, r, unitSize int) ([]byte, func()) {
	if o.Source != nil {
		if p, err := o.Source.StreamPool(k, r, unitSize); err == nil && p != nil {
			if b, err := p.Get(); err == nil {
				return b.Raw(), func() { p.Put(b) } //nolint:errcheck // same pool, same geometry
			}
		}
	}
	return make([]byte, (k+r)*unitSize), func() {}
}

func (o Opts) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

func (o Opts) fs() vfs.FS { return vfs.Or(o.FS) }

// ctxErr reports whether the Opts context is dead, wrapping its cause.
func (o Opts) ctxErr() error {
	if ctx := o.context(); ctx.Err() != nil {
		return fmt.Errorf("shardfile: canceled: %w", context.Cause(ctx))
	}
	return nil
}

// Pools for the per-request streaming state whose size does not depend on
// the object: the bufio buffers (k+r+1 of them per request — the largest
// per-request allocation). Pooling them turns the request-setup cost into
// a few pointer swaps once the pools are warm.
var (
	bufWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, streamBufSize) }}
	bufReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(eofReader{}, streamBufSize) }}
)

// eofReader is the parked source of pooled bufio.Readers: a pooled reader
// never holds a reference to a caller's file or socket.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

func getBufWriter(w io.Writer) *bufio.Writer {
	bw := bufWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putBufWriter(bw *bufio.Writer) {
	bw.Reset(io.Discard) // drop buffered bytes and the sink reference
	bufWriterPool.Put(bw)
}

func getBufReader(r io.Reader) *bufio.Reader {
	br := bufReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putBufReader(br *bufio.Reader) {
	br.Reset(eofReader{})
	bufReaderPool.Put(br)
}

// shardSink is one shard's write fan-out: the gathered equivalent of
// io.MultiWriter(bufio, shardSummer). Each pipeline write lands in both
// consumers from a single method body — no interface dispatch loop, no
// per-call multiWriter allocation — and only the sink write can fail (the
// summer is infallible by construction).
type shardSink struct {
	w   *bufio.Writer
	sum shardSummer
}

func (s *shardSink) Write(p []byte) (int, error) {
	if _, err := s.w.Write(p); err != nil {
		return 0, err
	}
	s.sum.add(p)
	return len(p), nil
}

// WriteStreamTo is the encode core: it streams src through the pipelined
// kernel into the k+r shard writers ws — files, pipes to peers, anything —
// and returns the manifest describing the set. Each writer gets a pooled
// bufio layer (flushed before return; closing or committing the sink is
// the caller's job) and a stripe summer, so the manifest's CRC32C columns
// come out of the single encode pass. size is validated against the bytes
// actually read; pass size < 0 when the source length is unknown up front
// (e.g. a chunked HTTP upload). An empty source still yields one all-zero
// stripe. A canceled opt.Ctx aborts the encode between stripes.
func WriteStreamTo(ws []io.Writer, src io.Reader, size int64, k, r, unitSize, workers int, opt Opts) (Manifest, gemmec.StreamStats, error) {
	var st gemmec.StreamStats
	m := Manifest{K: k, R: r, UnitSize: unitSize, FileSize: size}
	if len(ws) != k+r {
		return m, st, fmt.Errorf("shardfile: %d shard writers for k+r=%d", len(ws), k+r)
	}
	code, err := opt.code(k, r, unitSize)
	if err != nil {
		return m, st, err
	}
	// Known size means known stripe count: size the per-shard stripe-sum
	// slices up front so the summers never grow mid-stream.
	sumCap := 1
	if size > 0 {
		stripeBytes := int64(k) * int64(unitSize)
		sumCap = int((size + stripeBytes - 1) / stripeBytes)
	}
	sinks := make([]shardSink, k+r)
	writers := make([]io.Writer, k+r)
	for i, w := range ws {
		sinks[i] = shardSink{
			w:   getBufWriter(w),
			sum: shardSummer{unit: unitSize, sums: make([]uint32, 0, sumCap)},
		}
		writers[i] = &sinks[i]
	}
	defer func() {
		for i := range sinks {
			putBufWriter(sinks[i].w)
		}
	}()

	// An empty object still gets one (all-zero) stripe, so every shard set
	// has at least one: feed a zero stripe when the source is known empty.
	if size == 0 {
		src = bytes.NewReader(make([]byte, code.DataSize()))
	}
	encOpts := append(opt.streamOpts(k, r, unitSize, workers),
		gemmec.WithStreamStats(&st), gemmec.WithStreamContext(opt.context()))
	in := getBufReader(src)
	sp := obs.StartSpan(opt.context(), "shardfile.encode")
	n, err := code.EncodeStream(in, writers, encOpts...)
	sp.SetArg(st.Stripes)
	sp.Stalls(st.ReadStall, st.EncodeStall, st.WriteStall)
	sp.End(err)
	putBufReader(in)
	if err != nil {
		return m, st, err
	}
	if size > 0 && n != size {
		return m, st, fmt.Errorf("shardfile: source is %d bytes, expected %d", n, size)
	}
	if size < 0 {
		m.FileSize = n
	}
	m.Stripes = int(st.Stripes)
	if m.Stripes == 0 {
		// Unknown-size source that turned out empty: emit the all-zero
		// stripe now (zero data implies zero parity for a linear code).
		zero := make([]byte, unitSize)
		for i := range writers {
			if _, err := writers[i].Write(zero); err != nil {
				return m, st, err
			}
		}
		m.Stripes = 1
	}
	m.Version = ManifestV2
	m.StripeSums = make([][]uint32, k+r)
	for i := range sinks {
		if err := sinks[i].w.Flush(); err != nil {
			return m, st, err
		}
		m.StripeSums[i] = sinks[i].sum.sums
	}
	return m, st, m.Validate()
}

// WriteStreamPaths is the file instantiation of the encode core: it
// encodes src into k+r shard files at the given paths and returns the
// manifest describing the set (the caller persists it — SaveManifest for
// the single-directory layout, or embedded in object metadata for a
// multi-node layout). size and workers are WriteStreamTo's. Each shard is
// written via a temporary file and renamed into place on success, so
// concurrent readers never observe a half-written shard; on any failure
// — a canceled opt.Ctx (client disconnect, deadline, drain) included —
// every temporary file is removed: a failed write leaves nothing behind.
func WriteStreamPaths(paths []string, src io.Reader, size int64, k, r, unitSize, workers int, opt Opts) (Manifest, gemmec.StreamStats, error) {
	var st gemmec.StreamStats
	m := Manifest{K: k, R: r, UnitSize: unitSize, FileSize: size}
	if len(paths) != k+r {
		return m, st, fmt.Errorf("shardfile: %d shard paths for k+r=%d", len(paths), k+r)
	}
	all := make([]int, k+r)
	for i := range all {
		all[i] = i
	}
	err := writeShardFiles(opt.fs(), paths, all, func(ws []io.Writer) error {
		var err error
		m, st, err = WriteStreamTo(ws, src, size, k, r, unitSize, workers, opt)
		return err
	})
	return m, st, err
}

// StreamReader is an opened shard set ready to decode — the decode core,
// produced by OpenStreams or its file instantiation OpenStreamPaths. For
// v2 (stripe-checksummed) manifests integrity checking happens inside the
// decode pass itself: every unit is verified against its CRC32C as it
// enters the stripe ring, and a shard that fails mid-stream is demoted to
// erased and reconstructed around.
//
// Unusable()/Degraded() reflect what is known at the time of the call:
// open-time failures immediately, mid-stream demotions once Decode has
// run — internal/server uses the former for response headers and the
// latter for response trailers.
type StreamReader struct {
	m   Manifest
	opt Opts
	// base is the manifest stripe every source is positioned at: 0 for a
	// whole-shard open, the first covering stripe for sources opened over a
	// byte window (ranged peer reads) or after seekToStripe.
	base     int64
	srcs     []io.ReadCloser // nil entries are unusable shards
	readers  []io.Reader
	bufrs    []*bufio.Reader // pooled; returned to bufReaderPool on Close
	guards   []*stallGuard
	unusable []int
	corrupt  []int
	demoted  []gemmec.Demotion
}

// Unusable returns the shard indices that could not serve reads: missing
// or unreachable sources, wrong-length (truncated) files, checksum
// mismatches, and — after Decode — shards demoted mid-stream.
func (sr *StreamReader) Unusable() []int { return sr.unusable }

// Corrupt returns the subset of Unusable whose bytes were present but
// failed verification (truncation or checksum mismatch) — rot rather than
// loss.
func (sr *StreamReader) Corrupt() []int { return sr.corrupt }

// Demoted returns the shards Decode stopped trusting mid-stream, with the
// stripe and cause of each demotion. Empty before Decode and after clean
// decodes.
func (sr *StreamReader) Demoted() []gemmec.Demotion { return sr.demoted }

// Degraded reports whether reconstruction is (or was) needed: open-time
// losses immediately, mid-stream demotions once Decode has run.
func (sr *StreamReader) Degraded() bool { return len(sr.unusable) > 0 }

// Close releases the underlying shard sources and lets any stall-guard
// pump goroutines wind down. It is safe to call after a failed Decode and
// is idempotent.
func (sr *StreamReader) Close() error {
	var first error
	for _, g := range sr.guards {
		g.stop()
	}
	sr.guards = nil
	for _, br := range sr.bufrs {
		putBufReader(br)
	}
	sr.bufrs = nil
	for i, c := range sr.srcs {
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
			sr.srcs[i] = nil
		}
	}
	return first
}

// stripeVerifier checks units against the manifest's CRC32C stripe sums
// as the decode pipeline gathers them. The clean path allocates nothing —
// one table-driven CRC per unit, no hashing state — which is what keeps
// steady-state DecodeStream inside the allocation guard. base offsets the
// pipeline's stripe numbers into the manifest for decodes that start
// mid-object (stripe 0 of the pipeline is manifest stripe base).
type stripeVerifier struct {
	sums [][]uint32
	base int64
}

func (v *stripeVerifier) VerifyUnit(shard int, stripe int64, unit []byte) error {
	stripe += v.base
	if stripe >= int64(len(v.sums[shard])) {
		return fmt.Errorf("shardfile: shard %d stripe %d beyond manifest's %d stripes: %w (%w)",
			shard, stripe, len(v.sums[shard]), ecerr.ErrShardTruncated, ecerr.ErrCorruptShard)
	}
	if crc32.Checksum(unit, castagnoli) != v.sums[shard][stripe] {
		return fmt.Errorf("shardfile: shard %d stripe %d fails CRC32C: %w", shard, stripe, ecerr.ErrCorruptShard)
	}
	return nil
}

// Decode streams the object's payload to dst through workers concurrent
// reconstruction workers, rebuilding the unusable shards' data units on
// the fly. For v2 manifests every unit is verified against its stripe
// checksum as it is read — the single pass both checks and decodes — and a
// shard that fails mid-stream (mismatch, truncation, read error) is
// demoted to erased and reconstructed around for the remaining stripes;
// see Demoted. It may be called at most once; Close must still be called
// after.
//
// The decode observes the Opts the reader was opened with: a canceled
// Ctx stops the pipeline between stripes, and a positive ShardReadTimeout
// demotes (cause "stall") any shard whose underlying read outlives the
// deadline instead of letting it hang the stream.
func (sr *StreamReader) Decode(dst io.Writer, workers int) (gemmec.StreamStats, error) {
	return sr.decodeFrom(dst, workers, sr.m.FileSize)
}

// DecodeRange streams only payload bytes [off, off+length) to dst — the
// read path for ranged GETs and for one member of a packed (slab) shard
// set, whose SlabEntry gives the window. The decode is stripe-seeking on
// both ends: every usable source is positioned at the first stripe the
// window touches (one Seek, no prefix reads — or already opened there,
// see OpenStreams) and the pipeline stops at the last covering stripe, so
// the shard I/O is O(stripes covering the range) regardless of where the
// window falls in the object. Like Decode it may be called at most once.
//
// The bounds check is deliberately written without computing off+length:
// for adversarial values near MaxInt64 the sum wraps negative and would
// pass a naive `off+length > FileSize` comparison.
func (sr *StreamReader) DecodeRange(dst io.Writer, workers int, off, length int64) (gemmec.StreamStats, error) {
	if off < 0 || length < 0 || off > sr.m.FileSize || length > sr.m.FileSize-off {
		return gemmec.StreamStats{}, fmt.Errorf("shardfile: range [off=%d,len=%d) outside payload of %d bytes",
			off, length, sr.m.FileSize)
	}
	if length == 0 {
		return gemmec.StreamStats{}, nil
	}
	stripeBytes := int64(sr.m.K) * int64(sr.m.UnitSize)
	if base := off / stripeBytes; base != sr.base {
		if err := sr.seekToStripe(base); err != nil {
			return gemmec.StreamStats{}, err
		}
	}
	w := &windowWriter{dst: dst, skip: off - sr.base*stripeBytes, n: length}
	st, err := sr.decodeFrom(w, workers, off+length-sr.base*stripeBytes)
	if err != nil && errors.Is(err, errWindowDone) {
		// The window closed before the pipeline drained its final stripes —
		// the early-stop worked, the caller has every requested byte.
		err = nil
	}
	if err == nil && w.n > 0 {
		err = fmt.Errorf("shardfile: range decode ended %d bytes short of [off=%d,len=%d)", w.n, off, length)
	}
	return st, err
}

// seekToStripe positions every usable source at the start of manifest
// stripe `base` (byte base*UnitSize of each shard). It must run before any
// decode reads: the pooled bufio layers and the stall-guard pumps are both
// lazy, so repositioning the sources underneath them is safe. A shard that
// cannot seek (a peer body — those are opened at their window instead) or
// whose Seek fails is dropped from the read set (decode reconstructs
// around it) rather than served from the wrong offset.
func (sr *StreamReader) seekToStripe(base int64) error {
	target := base * int64(sr.m.UnitSize)
	for i, c := range sr.srcs {
		if c == nil {
			continue
		}
		if s, ok := c.(io.Seeker); ok {
			if _, err := s.Seek(target, io.SeekStart); err == nil {
				continue
			}
		}
		sr.readers[i] = nil
		sr.unusable = appendShard(sr.unusable, i)
	}
	if usable := sr.m.K + sr.m.R - len(sr.unusable); usable < sr.m.K {
		return fmt.Errorf("shardfile: only %d of %d shards seekable, need k=%d: %w",
			usable, sr.m.K+sr.m.R, sr.m.K, gemmec.ErrTooFewShards)
	}
	sr.base = base
	return nil
}

// decodeFrom runs the decode pipeline over `size` payload bytes starting
// at manifest stripe sr.base, where the sources are positioned. Stripe
// numbers reported by the pipeline are rebased into manifest coordinates
// for both verification and demotion records.
func (sr *StreamReader) decodeFrom(dst io.Writer, workers int, size int64) (gemmec.StreamStats, error) {
	var st gemmec.StreamStats
	code, err := sr.opt.code(sr.m.K, sr.m.R, sr.m.UnitSize)
	if err != nil {
		return st, err
	}
	out := getBufWriter(dst)
	defer putBufWriter(out)
	opts := append(sr.opt.streamOpts(sr.m.K, sr.m.R, sr.m.UnitSize, workers),
		gemmec.WithStreamStats(&st), gemmec.WithStreamContext(sr.opt.context()))
	if sr.m.StripeVerified() {
		opts = append(opts, gemmec.WithStreamVerifier(&stripeVerifier{sums: sr.m.StripeSums, base: sr.base}))
	}
	sp := obs.StartSpan(sr.opt.context(), "shardfile.decode")
	err = code.DecodeStream(sr.readers, out, size, opts...)
	sp.SetArg(st.Stripes)
	sp.Stalls(st.ReadStall, st.EncodeStall, st.WriteStall)
	sp.End(err)
	for i := range st.Demoted {
		st.Demoted[i].Stripe += sr.base
	}
	sr.recordDemotions(st.Demoted)
	if err != nil {
		return st, err
	}
	return st, out.Flush()
}

// errWindowDone terminates a range decode the moment the window's last
// byte has been written: windowWriter returns it once the window closes,
// the pipeline's write stage treats it like any write failure and stops,
// and DecodeRange recognizes it as success. Without it a decode whose
// size overshoots the window would stream — and reconstruct, and verify —
// every byte to the end of the object just to discard it.
var errWindowDone = errors.New("shardfile: range window complete")

// windowWriter passes through only bytes [skip, skip+n) of the stream
// written to it, discarding bytes before the window and stopping the
// producer (via errWindowDone) once the window is full. n counts down: a
// decode that ends cleanly with n > 0 came up short.
type windowWriter struct {
	dst  io.Writer
	skip int64 // bytes still to discard before the window
	n    int64 // window bytes still to pass through
}

func (w *windowWriter) Write(p []byte) (int, error) {
	total := len(p)
	if w.skip > 0 {
		if int64(len(p)) <= w.skip {
			w.skip -= int64(len(p))
			return total, nil
		}
		p = p[w.skip:]
		w.skip = 0
	}
	if w.n > 0 && len(p) > 0 {
		take := int64(len(p))
		if take > w.n {
			take = w.n
		}
		if _, err := w.dst.Write(p[:take]); err != nil {
			return 0, err
		}
		w.n -= take
	}
	if w.n == 0 {
		// Window complete: accept the tail bytes of this write (they are
		// legitimately discarded) but stop the producer.
		return total, errWindowDone
	}
	return total, nil
}

// recordDemotions folds mid-stream demotions into the reader's unusable
// and corrupt sets, so post-decode inspection sees the final shard state.
func (sr *StreamReader) recordDemotions(dems []gemmec.Demotion) {
	for _, d := range dems {
		sr.demoted = append(sr.demoted, d)
		sr.unusable = appendShard(sr.unusable, d.Shard)
		if errors.Is(d.Cause, ecerr.ErrCorruptShard) {
			sr.corrupt = appendShard(sr.corrupt, d.Shard)
		}
	}
}

// appendShard adds i to the sorted index set if absent.
func appendShard(set []int, i int) []int {
	for _, v := range set {
		if v == i {
			return set
		}
	}
	set = append(set, i)
	sort.Ints(set)
	return set
}

// OpenStreams is the decode core's constructor: it wraps one opened
// source per shard of m — nil where the shard is missing or unreachable —
// positioned at manifest stripe base (0 for whole shards; a ranged peer
// read opens each body at the first stripe covering its window), and
// takes ownership of them: they are closed by Close, or here on failure.
// Each usable source gets a pooled bufio layer (over a stall guard when
// opt.ShardReadTimeout is set); nothing is read until Decode, which
// verifies every unit's CRC32C inside the decode pass itself. If fewer
// than k sources are usable the returned error wraps
// gemmec.ErrTooFewShards.
//
// opt is remembered by the returned reader: its Ctx, ShardReadTimeout,
// Sched and Source govern the later Decode (see StreamReader.Decode).
func OpenStreams(srcs []io.ReadCloser, m Manifest, base int64, opt Opts) (*StreamReader, error) {
	sr := &StreamReader{m: m, opt: opt, base: base, srcs: srcs}
	err := m.Validate()
	if err == nil && len(srcs) != m.K+m.R {
		err = fmt.Errorf("shardfile: %d shard sources for k+r=%d", len(srcs), m.K+m.R)
	}
	if err == nil {
		err = sr.wire(nil)
	}
	if err != nil {
		sr.Close()
		return nil, err
	}
	return sr, nil
}

// wire builds the read stack over sr.srcs — stall guard, pooled bufio —
// and the unusable/corrupt sets (corruptAt marks nil sources whose bytes
// were present but failed an open-time check), and fails when fewer than
// k shards remain.
func (sr *StreamReader) wire(corruptAt []bool) error {
	n := sr.m.K + sr.m.R
	sr.readers = make([]io.Reader, n)
	for i, c := range sr.srcs {
		if c == nil {
			sr.unusable = append(sr.unusable, i)
			if corruptAt != nil && corruptAt[i] {
				sr.corrupt = append(sr.corrupt, i)
			}
			continue
		}
		var rd io.Reader = c
		if sr.opt.ShardReadTimeout > 0 {
			// The guard goes under bufio, so small units share one deadline
			// and one copy per streamBufSize refill; unit-sized reads pass
			// through bufio and are guarded one by one.
			g := newStallGuard(c, i, sr.opt.ShardReadTimeout)
			sr.guards = append(sr.guards, g)
			rd = g
		}
		br := getBufReader(rd)
		sr.bufrs = append(sr.bufrs, br)
		sr.readers[i] = br
	}
	if usable := n - len(sr.unusable); usable < sr.m.K {
		return sr.tooFew(usable)
	}
	return nil
}

// OpenStreamPaths is the file instantiation of the decode core: it opens
// the shard files of one manifest. For v2 (stripe-checksummed) manifests
// the open is O(1) per shard: existence and length are checked (a stat,
// no reads), and content verification is deferred to Decode — each shard
// byte is read exactly once, and the first payload byte costs one stripe
// of I/O instead of a whole-object hashing barrier. For legacy v1
// manifests recording whole-shard checksums, each present shard is still
// SHA-256-verified up front, in parallel (one goroutine per shard).
//
// Shards that are missing, truncated, or (v1) checksum-corrupt are
// treated as erased; if fewer than k usable shards remain the returned
// error wraps gemmec.ErrTooFewShards (and gemmec.ErrCorruptShard when
// verification failures contributed), so callers classify "disk lied" vs
// "disk lost" with errors.Is. opt is remembered as for OpenStreams; its
// FS is where the shards are opened.
func OpenStreamPaths(paths []string, m Manifest, opt Opts) (*StreamReader, error) {
	sp := obs.StartSpan(opt.context(), "shardfile.open")
	sr, err := openStreamPaths(paths, m, opt)
	sp.End(err)
	return sr, err
}

func openStreamPaths(paths []string, m Manifest, opt Opts) (*StreamReader, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := opt.ctxErr(); err != nil {
		return nil, err
	}
	n := m.K + m.R
	if len(paths) != n {
		return nil, fmt.Errorf("shardfile: %d shard paths for k+r=%d", len(paths), n)
	}
	fsys := opt.fs()
	sr := &StreamReader{m: m, opt: opt, srcs: make([]io.ReadCloser, n)}
	want := int64(m.Stripes) * int64(m.UnitSize)
	corruptAt := make([]bool, n)
	for i, p := range paths {
		f, err := fsys.Open(p)
		if err != nil {
			continue // missing: srcs[i] stays nil
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			sr.Close()
			return nil, err
		}
		if fi.Size() != want {
			f.Close()
			corruptAt[i] = true
			continue
		}
		sr.srcs[i] = f
	}

	// Legacy v1 manifests still pay the whole-shard SHA-256 pre-read; run
	// the shards concurrently so the open costs one shard's scan time, not
	// k+r of them. Each goroutine owns only its slot of errs/bad.
	if !m.StripeVerified() && m.Checksums != nil {
		errs := make([]error, n)
		bad := make([]bool, n)
		var wg sync.WaitGroup
		for i, c := range sr.srcs {
			if c == nil {
				continue
			}
			wg.Add(1)
			go func(i int, f io.ReadSeeker) {
				defer wg.Done()
				h := sha256.New()
				if _, err := io.Copy(h, f); err != nil {
					errs[i] = err
					return
				}
				if hex.EncodeToString(h.Sum(nil)) != m.Checksums[i] {
					bad[i] = true
					return
				}
				_, errs[i] = f.Seek(0, io.SeekStart)
			}(i, c.(vfs.File))
		}
		wg.Wait()
		for i := range sr.srcs {
			if errs[i] != nil {
				sr.Close()
				return nil, errs[i]
			}
			if bad[i] {
				sr.srcs[i].Close()
				sr.srcs[i] = nil
				corruptAt[i] = true
			}
		}
	}
	if err := sr.wire(corruptAt); err != nil {
		sr.Close()
		return nil, err
	}
	return sr, nil
}
