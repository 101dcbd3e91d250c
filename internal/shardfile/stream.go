package shardfile

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"gemmec"
	"gemmec/internal/ecerr"
	"gemmec/internal/obs"
	"gemmec/internal/pipeline"
	"gemmec/internal/vfs"
)

// The shard-stream engine: one encode core (WriteStreamTo), one decode core
// (OpenStreams + StreamReader.Decode) and one repair core (a stripe walk
// over a StreamReader with three clients: Scan, RepairTo, Verify — see
// repair.go). The first two run the pipelined EncodeStream/DecodeShards
// API over per-shard io.Writers / a read plan; together they own
// everything that is not "where the bytes live" — pooled bufio, stripe
// sums, the at-least-one-stripe rule, size validation, manifest assembly,
// the read plan (which units a window needs, what a fault adds), per-unit
// verification, demotion bookkeeping, the ≤ r erasures-per-stripe repair
// contract. Two instantiations feed it. WriteStreamPaths/OpenRangePaths/
// ScrubPaths put a shard file at an explicit path per unit (temp +
// rename; open + stat, seek where the plan reads), so a caller can spread
// the k+r shards of one object across separate "node" directories —
// eccli's single directory and internal/server's Store. The cluster
// Gateway hands the cores its per-peer upload pipes, and a probe of its
// peers plus a way to fetch a shard interval. Both produce and accept the
// same manifests.

// streamBufSize is the size of every bufio layer on the streaming paths:
// half the default unit. The pipeline moves whole units (shard side) and
// whole stripes (payload side), and bufio passes any read or write at
// least as large as its buffer straight through, so default-geometry I/O
// reaches the file, socket or pipe uncopied — one syscall per unit —
// while the buffer still coalesces small units (a 4 KiB-unit shard stream
// costs one syscall per 16 units, not one each). The size of the I/O
// picks the path; nothing else does. The same threshold picks how a
// shard file is written: units that would pass through bufio anyway are
// written by the kernel task that coded them (see WriteStreamPaths).
const streamBufSize = gemmec.DefaultUnitSize / 2

// Opts carries the cross-cutting knobs of the engine's entry points:
// request lifetime, filesystem seam (file instantiation only), per-shard
// read deadline, and the shared scheduler and code source. The zero value
// means "background context, real filesystem, no deadline, inline kernel,
// per-call code".
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
	// shared worker pool (gemmec.WithStreamScheduler), overlapped with the
	// shard I/O. This is how a server multiplexes every request's stripe
	// work onto one bounded goroutine set. Without it a call runs inline
	// on the caller's goroutine.
	Sched *gemmec.Scheduler
	// Source, when non-nil, supplies shared per-geometry coding state: the
	// compiled *gemmec.Code and the stripe-buffer pool for (k, r, unitSize).
	// Without it every call compiles a fresh code and allocates a fresh
	// ring — correct, but the per-request constant a server wants amortized
	// to zero. internal/tuned's Registry is the serving implementation.
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

// streamOpts translates Opts into stream options: the shared scheduler
// when Opts carries one, and the shared stripe pool when a Source supplies
// one.
func (o Opts) streamOpts(k, r, unitSize int) []gemmec.StreamOption {
	opts := make([]gemmec.StreamOption, 0, 5)
	if o.Sched != nil {
		opts = append(opts, gemmec.WithStreamScheduler(o.Sched))
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

// sink is one shard's encode sink: the shard writer and its stripe
// summer. finish flushes what the sink buffers and returns the shard's
// Manifest.StripeSums column.
type sink interface {
	io.Writer
	finish() ([]uint32, error)
}

// shardSink is the in-order sink: the gathered equivalent of
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

func (s *shardSink) finish() ([]uint32, error) { return s.sum.sums, s.w.Flush() }

// unitSink is the positioned sink: a pipeline.UnitWriter over a shard file
// this package created. The kernel task that coded a stripe hands it the
// shard's unit, and it sums the unit and writes it at the stripe's offset
// — no buffer, no in-order writer, several stripes at once.
type unitSink struct {
	f   io.WriterAt
	sum shardSummer
}

func (s *unitSink) WriteUnit(stripe int64, unit []byte) error {
	s.sum.put(stripe, unit)
	_, err := s.f.WriteAt(unit, stripe*int64(len(unit)))
	return err
}

// Write makes the sink the io.Writer the pipeline's shard slice holds; the
// pipeline writes a UnitWriter through WriteUnit only.
func (s *unitSink) Write([]byte) (int, error) {
	return 0, errors.New("shardfile: a positioned shard sink takes whole units only")
}

func (s *unitSink) finish() ([]uint32, error) { return s.sum.sums, nil }

// WriteStreamTo is the encode core: it streams src through the stripe
// loop into the k+r shard writers ws — files, pipes to peers, anything —
// and returns the manifest describing the set. Each writer gets a pooled
// bufio layer (flushed before return; closing or committing the sink is
// the caller's job) and a stripe summer, so the manifest's CRC32C columns
// come out of the single encode pass. size is validated against the bytes
// actually read; pass size < 0 when the source length is unknown up front
// (e.g. a chunked HTTP upload). An empty source still yields one all-zero
// stripe. A canceled opt.Ctx aborts the encode between stripes.
func WriteStreamTo(ws []io.Writer, src io.Reader, size int64, k, r, unitSize int, opt Opts) (Manifest, gemmec.StreamStats, error) {
	bufs := make([]shardSink, len(ws))
	sinks := make([]sink, len(ws))
	for i, w := range ws {
		bufs[i] = shardSink{w: getBufWriter(w), sum: newSummer(k, unitSize, size)}
		sinks[i] = &bufs[i]
	}
	defer func() {
		for i := range bufs {
			putBufWriter(bufs[i].w)
		}
	}()
	return encode(sinks, src, size, k, r, unitSize, opt)
}

// encode runs the stripe loop from src into sinks and assembles the
// manifest: WriteStreamTo's contract, over sinks of either kind.
func encode(sinks []sink, src io.Reader, size int64, k, r, unitSize int, opt Opts) (Manifest, gemmec.StreamStats, error) {
	var st gemmec.StreamStats
	m := Manifest{K: k, R: r, UnitSize: unitSize, FileSize: size}
	if len(sinks) != k+r {
		return m, st, fmt.Errorf("shardfile: %d shard writers for k+r=%d", len(sinks), k+r)
	}
	code, err := opt.code(k, r, unitSize)
	if err != nil {
		return m, st, err
	}
	writers := make([]io.Writer, len(sinks))
	for i, s := range sinks {
		writers[i] = s
	}
	sp := obs.StartSpan(opt.context(), "shardfile.encode")
	in := getBufReader(src)
	defer putBufReader(in)
	// An empty object still gets one (all-zero) stripe, so every shard set
	// has at least one: a source known or found to be empty is encoded as
	// one zero stripe, whose bytes are padding, not payload.
	empty := size == 0
	if size < 0 {
		_, err := in.Peek(1)
		empty = err == io.EOF
	}
	if empty {
		in.Reset(bytes.NewReader(make([]byte, code.DataSize())))
	}
	encOpts := append(opt.streamOpts(k, r, unitSize),
		gemmec.WithStreamStats(&st), gemmec.WithStreamContext(opt.context()))
	n, err := code.EncodeStream(in, writers, encOpts...)
	sp.SetArg(st.Stripes)
	sp.Stalls(st.ReadStall, st.EncodeStall, st.WriteStall)
	sp.End(err)
	if err != nil {
		return m, st, err
	}
	if empty {
		n = 0
	}
	if size >= 0 && n != size {
		return m, st, fmt.Errorf("shardfile: source is %d bytes, expected %d", n, size)
	}
	m.FileSize = n
	m.Stripes = int(st.Stripes)
	m.Version = ManifestV2
	m.StripeSums = make([][]uint32, k+r)
	for i, s := range sinks {
		if m.StripeSums[i], err = s.finish(); err != nil {
			return m, st, err
		}
	}
	return m, st, m.Validate()
}

// WriteStreamPaths is the file instantiation of the encode core: it
// encodes src into k+r shard files at the given paths and returns the
// manifest describing the set (the caller persists it — SaveManifest for
// the single-directory layout, or embedded in object metadata for a
// multi-node layout). size is WriteStreamTo's. Each shard is written via
// a temporary file and renamed into place on success, so concurrent
// readers never observe a half-written shard; on any failure — a canceled
// opt.Ctx (client disconnect, deadline, drain) included — every temporary
// file is removed: a failed write leaves nothing behind.
//
// The size of the I/O picks the write path, as it picks the bufio one
// (streamBufSize): units at least streamBufSize long are written by the
// kernel task that coded them, each at its stripe's offset in the fresh
// temporary file (unitSink), so a stripe is finished where it is coded;
// smaller units go through WriteStreamTo's buffered in-order writer, which
// coalesces them. The shard bytes and the manifest are the same either
// way.
//
// The int after unitSize is ignored. It was a per-call worker count; the
// frozen benchmark/ladder.go still passes one here and to
// StreamReader.Decode and DecodeRange until the next change to the
// frozen benchmark/ module drops all three. Workers come from opt.Sched.
func WriteStreamPaths(paths []string, src io.Reader, size int64, k, r, unitSize, _ int, opt Opts) (Manifest, gemmec.StreamStats, error) {
	var st gemmec.StreamStats
	m := Manifest{K: k, R: r, UnitSize: unitSize, FileSize: size}
	if len(paths) != k+r {
		return m, st, fmt.Errorf("shardfile: %d shard paths for k+r=%d", len(paths), k+r)
	}
	all := make([]int, k+r)
	for i := range all {
		all[i] = i
	}
	err := writeShardFiles(opt.fs(), paths, all, func(files []io.Writer) error {
		var err error
		if unitSize < streamBufSize {
			m, st, err = WriteStreamTo(files, src, size, k, r, unitSize, opt)
			return err
		}
		units := make([]unitSink, len(files))
		sinks := make([]sink, len(files))
		for i, f := range files {
			units[i] = unitSink{f: f.(vfs.File), sum: newSummer(k, unitSize, size)}
			sinks[i] = &units[i]
		}
		m, st, err = encode(sinks, src, size, k, r, unitSize, opt)
		return err
	})
	return m, st, err
}

// ReadPlan is the read set of one decode — which stripes of which shards
// it reads; see pipeline.Plan.
type ReadPlan = pipeline.Plan

// PlanRead plans a clean read of payload bytes [off, off+length) of m:
// each data shard's units inside the window, no parity. An instantiation
// that must fetch before it can probe (a peer body) opens exactly the
// intervals the plan names and hands them to OpenStreams.
//
// The bounds check is deliberately written without computing off+length:
// for adversarial values near MaxInt64 the sum wraps negative and would
// pass a naive `off+length > FileSize` comparison.
func PlanRead(m Manifest, off, length int64) (ReadPlan, error) {
	if m.K <= 0 || m.R <= 0 || m.UnitSize <= 0 {
		return ReadPlan{}, fmt.Errorf("shardfile: invalid manifest %+v", m)
	}
	if off < 0 || length < 0 || off > m.FileSize || length > m.FileSize-off {
		return ReadPlan{}, fmt.Errorf("shardfile: range [off=%d,len=%d) outside payload of %d bytes",
			off, length, m.FileSize)
	}
	return pipeline.NewPlan(m.K, m.R, m.UnitSize, off, length), nil
}

// FullPlan is the plan of a repair walk: every stripe of every shard, data
// and parity alike.
func FullPlan(m Manifest) ReadPlan { return pipeline.FullPlan(m.FileSize, int64(m.Stripes)) }

// ShardOpener is an instantiation's half of the read plan: it opens shard
// i of the set positioned at the first byte of stripe from, to be read up
// to stripe to. The decode core calls it when a plan — or its escalation
// after a fault — first reads a shard that the open did not already hand
// over, so a shard no plan reads is never opened.
type ShardOpener func(shard int, from, to int64) (io.ReadCloser, error)

// StreamReader is an opened shard set ready to decode — the decode core,
// produced by OpenStreams or its file instantiations OpenStreamPaths and
// OpenRangePaths. It holds a read plan, not k+r streams: a clean decode
// opens, reads and checksums only the data units inside its window, and
// the first fault on one of them — open error, short read, stall, CRC
// mismatch — brings in the rest of the stripe and the parity, demotes the
// faulty shard and reconstructs around it (pipeline.Shards). Every unit
// that is read is verified against its CRC32C as it enters the stripe
// ring (Manifest.VerifyUnit), so every byte returned has been checked.
//
// Unusable()/Degraded() reflect what is known at the time of the call:
// what the open-time probe of all k+r shards found, immediately, and
// mid-stream demotions once Decode has run — internal/server uses the
// former for response headers and the latter for response trailers.
type StreamReader struct {
	m    Manifest
	opt  Opts
	plan ReadPlan
	open ShardOpener
	srcs []shardSrc
	// lost marks the shards the open-time probe found unusable.
	lost     []bool
	unusable []int
	corrupt  []int
	demoted  []gemmec.Demotion
}

// shardSrc is one shard's read stack: the open source, the stripes it was
// opened for, and the layers Decode reads it through.
type shardSrc struct {
	c io.ReadCloser // nil while the shard is not open
	// from and to are the stripes c was opened to serve; from is -1 once
	// reading has begun and c's position is the reader's business.
	from, to int64
	lim      io.LimitedReader // stops bufio reading ahead past stripe to
	br       *bufio.Reader    // pooled
	guard    *stallGuard
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
	for i := range sr.srcs {
		if err := sr.drop(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// drop closes shard i's source, if open, and returns its read stack.
func (sr *StreamReader) drop(i int) error {
	s := &sr.srcs[i]
	if s.guard != nil {
		s.guard.stop()
		s.guard = nil
	}
	if s.br != nil {
		putBufReader(s.br)
		s.br = nil
	}
	if s.c == nil {
		return nil
	}
	err := s.c.Close()
	s.c = nil
	return err
}

// source returns shard i ready to read from stripe from up to stripe to:
// the source the open handed over when it stands exactly there, a fresh
// one from the instantiation's opener otherwise. Each gets a pooled bufio
// layer over a stall guard when opt.ShardReadTimeout is set — the guard
// goes under bufio, so small units share one deadline and one copy per
// streamBufSize refill, and unit-sized reads pass through bufio and are
// guarded one by one.
func (sr *StreamReader) source(i int, from, to int64) (io.Reader, error) {
	s := &sr.srcs[i]
	if s.c == nil || s.from != from || s.to < to {
		sr.drop(i) //nolint:errcheck // a source nothing was read from
		if sr.open == nil {
			return nil, fmt.Errorf("shardfile: shard %d is not open at stripe %d", i, from)
		}
		c, err := sr.open(i, from, to)
		if err != nil {
			return nil, err
		}
		s.c = c
	}
	s.from = -1
	var rd io.Reader = s.c
	if sr.opt.ShardReadTimeout > 0 {
		s.guard = newStallGuard(rd, i, sr.opt.ShardReadTimeout)
		rd = s.guard
	}
	s.lim = io.LimitedReader{R: rd, N: (to - from) * int64(sr.m.UnitSize)}
	s.br = getBufReader(&s.lim)
	return s.br, nil
}

// Decode streams the payload window the reader was opened for to dst,
// rebuilding the unusable shards' data units on the fly (its int argument
// is ignored — see WriteStreamPaths). Every unit is verified against its
// stripe checksum as it is read — the single pass both checks and
// decodes — and a shard that fails mid-stream (mismatch, truncation, read
// error) is demoted to erased and reconstructed around for the remaining
// stripes; see Demoted. It may be called at most once;
// Close must still be called after.
//
// The decode observes the Opts the reader was opened with: a canceled
// Ctx stops the pipeline between stripes, and a positive ShardReadTimeout
// demotes (cause "stall") any shard whose underlying read outlives the
// deadline instead of letting it hang the stream.
func (sr *StreamReader) Decode(dst io.Writer, _ int) (gemmec.StreamStats, error) {
	var st gemmec.StreamStats
	m := sr.m
	code, err := sr.opt.code(m.K, m.R, m.UnitSize)
	if err != nil {
		return st, err
	}
	out := getBufWriter(dst)
	defer putBufWriter(out)
	opts := append(sr.opt.streamOpts(m.K, m.R, m.UnitSize), gemmec.WithStreamStats(&st),
		gemmec.WithStreamContext(sr.opt.context()), gemmec.WithStreamVerifier(&sr.m))
	sp := obs.StartSpan(sr.opt.context(), "shardfile.decode")
	err = code.DecodeShards(pipeline.Shards{Plan: sr.plan, Lost: sr.lost, Open: sr.source}, out, opts...)
	sp.SetArg(st.Stripes)
	sp.Stalls(st.ReadStall, st.EncodeStall, st.WriteStall)
	sp.End(err)
	sr.recordDemotions(st.Demoted)
	if err != nil {
		return st, err
	}
	return st, out.Flush()
}

// DecodeRange is Decode over payload bytes [off, off+length) instead of
// the window the reader was opened for: the plan is drawn again, and a
// source the open positioned for the old one is reopened where the new
// one needs it. A caller that knows its window up front opens with it
// (OpenRangePaths, or PlanRead + OpenStreams) and calls Decode.
func (sr *StreamReader) DecodeRange(dst io.Writer, _ int, off, length int64) (gemmec.StreamStats, error) {
	if off != sr.plan.Off || length != sr.plan.Len {
		plan, err := PlanRead(sr.m, off, length)
		if err != nil {
			return gemmec.StreamStats{}, err
		}
		sr.plan = plan
	}
	return sr.Decode(dst, 0)
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

// OpenStreams is the decode core's constructor. The caller has probed all
// k+r shards of m and says what it found: srcs[i], when non-nil, is shard
// i already open at the interval plan gives it (ownership passes to the
// reader: closed by Close, or here on failure); lost[i] marks a shard that
// is missing, unreachable or the wrong length; a shard that is neither is
// present and unopened, and open (which may be nil when every shard a
// decode could want is in srcs) fetches it if a fault escalates the plan.
// Nothing is read until Decode, which verifies every unit's CRC32C inside
// the decode pass itself. If fewer than k shards are usable the returned
// error wraps gemmec.ErrTooFewShards.
//
// opt is remembered by the returned reader: its Ctx, ShardReadTimeout,
// Sched and Source govern the later Decode (see StreamReader.Decode).
func OpenStreams(m Manifest, plan ReadPlan, srcs []io.ReadCloser, lost []bool, open ShardOpener, opt Opts) (*StreamReader, error) {
	err := m.Validate()
	if err == nil && (len(srcs) != m.K+m.R || len(lost) != m.K+m.R) {
		err = fmt.Errorf("shardfile: %d shard sources, %d probe results for k+r=%d", len(srcs), len(lost), m.K+m.R)
	}
	if err != nil {
		closeAll(srcs)
		return nil, err
	}
	return newStreamReader(m, plan, srcs, lost, nil, open, opt)
}

// newStreamReader assembles a reader from a probe's findings (corruptAt
// marks lost shards whose bytes were present but failed an open-time
// check) and fails when fewer than k shards remain.
func newStreamReader(m Manifest, plan ReadPlan, srcs []io.ReadCloser, lost, corruptAt []bool, open ShardOpener, opt Opts) (*StreamReader, error) {
	sr := &StreamReader{m: m, opt: opt, plan: plan, open: open, srcs: make([]shardSrc, len(srcs)), lost: lost}
	for i, c := range srcs {
		s := &sr.srcs[i]
		s.c = c
		s.from, s.to = plan.Interval(i)
		if lost[i] {
			sr.unusable = append(sr.unusable, i)
			if corruptAt != nil && corruptAt[i] {
				sr.corrupt = append(sr.corrupt, i)
			}
		}
	}
	if usable := len(srcs) - len(sr.unusable); usable < m.K {
		sr.Close()
		return nil, sr.tooFew(usable)
	}
	return sr, nil
}

func closeAll(srcs []io.ReadCloser) {
	for _, c := range srcs {
		if c != nil {
			c.Close()
		}
	}
}

// OpenStreamPaths is OpenRangePaths over the whole payload.
func OpenStreamPaths(paths []string, m Manifest, opt Opts) (*StreamReader, error) {
	return OpenRangePaths(paths, m, 0, m.FileSize, opt)
}

// OpenRangePaths is the file instantiation of the decode core: it opens
// the shard files of one manifest to read payload bytes [off, off+length)
// — the whole object, a ranged GET's window, or one member of a packed
// (slab) shard set, whose SlabEntry gives the window. Every one of the
// k+r files is probed for existence and length (an open and a stat, no
// reads); the ones the window's plan reads stay open, seeked to the first
// stripe it reads of them, and the rest are closed again, to be reopened
// only if a fault escalates the plan. Content verification is deferred to
// Decode — each byte is read exactly once, and the first payload byte
// costs the window's first units of I/O instead of a whole-object hashing
// barrier.
//
// Shards that are missing or truncated are treated as erased; if fewer
// than k usable shards remain the returned error wraps
// gemmec.ErrTooFewShards (and gemmec.ErrCorruptShard when truncation
// contributed), so callers classify "disk lied" vs "disk lost" with
// errors.Is. opt is remembered as for OpenStreams; its FS is where the
// shards are opened.
func OpenRangePaths(paths []string, m Manifest, off, length int64, opt Opts) (*StreamReader, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	plan, err := PlanRead(m, off, length)
	if err != nil {
		return nil, err
	}
	return openPaths(paths, m, plan, opt)
}

// openFullPaths opens the shard files of one manifest for a repair walk:
// OpenRangePaths under the full plan, so every usable file stays open.
func openFullPaths(paths []string, m Manifest, opt Opts) (*StreamReader, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return openPaths(paths, m, FullPlan(m), opt)
}

// openPaths probes the k+r shard files of a validated manifest and opens
// the ones plan reads.
func openPaths(paths []string, m Manifest, plan ReadPlan, opt Opts) (sr *StreamReader, err error) {
	sp := obs.StartSpan(opt.context(), "shardfile.open")
	defer func() { sp.End(err) }()
	if err := opt.ctxErr(); err != nil {
		return nil, err
	}
	n := m.K + m.R
	if len(paths) != n {
		return nil, fmt.Errorf("shardfile: %d shard paths for k+r=%d", len(paths), n)
	}
	fsys := opt.fs()
	unit := int64(m.UnitSize)
	openAt := func(i int, from int64) (vfs.File, error) {
		f, err := fsys.Open(paths[i])
		if err != nil {
			return nil, err
		}
		if from > 0 {
			if _, err := f.Seek(from*unit, io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
		}
		return f, nil
	}
	open := func(i int, from, _ int64) (io.ReadCloser, error) {
		f, err := openAt(i, from)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	want := int64(m.Stripes) * unit
	srcs := make([]io.ReadCloser, n)
	flags := make([]bool, 2*n)
	lost, corruptAt := flags[:n:n], flags[n:]
	for i := range paths {
		from, to := plan.Interval(i)
		f, err := openAt(i, from)
		if err != nil {
			lost[i] = true // missing
			continue
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			closeAll(srcs)
			return nil, err
		}
		switch {
		case fi.Size() != want:
			lost[i], corruptAt[i] = true, true
			f.Close()
		case from < to:
			srcs[i] = f
		default:
			f.Close() // present; nothing planned to read from it
		}
	}
	return newStreamReader(m, plan, srcs, lost, corruptAt, open, opt)
}
