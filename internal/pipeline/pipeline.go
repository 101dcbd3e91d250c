// Package pipeline is the streaming engine behind the public
// EncodeStream/DecodeStream API. The paper's §5 argument is that an EC
// library wins or loses on integration: the compiled kernel is only as
// fast as the path that feeds it contiguous stripes. There is one such
// path here — run — and every stripe of every stream crosses it: a ring
// of stripe buffers drawn from a stripe.Pool, and three stages per stripe,
// supplied by the direction (see stages):
//
//	fill   — load a free ring slot from the input side, in stripe order
//	kernel — run the compiled kernel on the slot
//	drain  — write the finished slot to the output side, strictly in
//	         stripe order
//
// Encode instantiates it with "read the source and pad / Encode / scatter
// to the k+r shard writers". Where the scatter happens depends on the
// sinks: writers that only take bytes in order are written by the in-order
// drain, one stripe at a time; sinks that all take a unit at its stripe
// (UnitWriter) are written by the kernel task that coded the stripe, so
// the stripe is finished where it is coded and the drain only counts it.
// Decode runs the same ring in reverse, over a
// read plan (Plan, Shards): fill gathers the units the plan names — for a
// clean read, the data units inside the requested window and nothing else
// — opening each shard the first time it is read, optionally verifying
// each unit against a per-stripe checksum as it lands (Config.Verify) and
// demoting shards that fail — open error, checksum mismatch, truncation,
// read error — to erased mid-stream instead of failing the read; a
// demotion widens the plan to the k cheapest survivors, kernel
// reconstructs the missing data units the window needs, and drain emits
// the window's share of the stripe to dst.
//
// Workers are a process resource, so the kernel stage owns none. It has
// two modes, chosen from what the call can observe. Handed a scheduler
// (Config.Sched — a bounded internal/sched pool with per-stream FIFO
// queues and fair round-robin dispatch, shared by every stream of the
// process), the run is queued: a reader goroutine fills slots and submits
// each to the pool, the caller's goroutine reorders finished slots by
// sequence number and drains them, and the ring (two slots per pool
// worker) bounds what is in flight. Handed none — or decoding a window of
// at most one stripe, where there is nothing to overlap — the run is
// inline: the same loop over a ring of one slot, every stage on the
// caller's goroutine, no goroutine started. Shard output is byte-identical
// either way; inline is the reference the tests compare the pool against.
//
// Backpressure falls out of the ring: every slot is always handed on —
// filled, coded, drained, freed — even after a failure, so every channel
// send below is non-blocking by construction (each channel's capacity is
// the ring's size) and the only blocking points are ring acquisition,
// source reads, kernel runs and sink writes — exactly the quantities Stats
// reports.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"gemmec/internal/ecerr"
	"gemmec/internal/sched"
	"gemmec/internal/stripe"
)

// readLabelCtx carries the pprof labels for the per-stream reader
// goroutines (source/shard I/O plus verification). Built once so
// attaching labels on the hot path is a pointer store, not an
// allocation; kernel time is labeled separately by the scheduler's
// workers (op=sched).
var readLabelCtx = func() context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("op", "pipeline", "stage", "read"))
}()

// Codec is the coding subset the pipeline drives. The public *gemmec.Code
// satisfies it. ReconstructData rebuilds every empty data unit of its
// k+r-unit table — an empty entry means lost — into that entry's capacity
// when it has unitSize, so decode hands it the slot's own buffer and
// rebuilds each unit in the ring.
type Codec interface {
	K() int
	R() int
	UnitSize() int
	Encode(data, parity []byte) error
	ReconstructData(units [][]byte) error
}

// UnitVerifier checks one shard unit as it enters the decode ring.
// VerifyUnit is called from the reader stage with the shard index, the
// stripe sequence number and the unit bytes just read; a non-nil return
// demotes the shard to erased from that stripe on (the error becomes the
// demotion's cause — wrap ecerr.ErrCorruptShard for checksum mismatches so
// errors.Is classification survives). Implementations are called from a
// single goroutine per stream and must not retain unit. The clean path
// must not allocate: verification runs once per unit on the decode hot
// path.
type UnitVerifier interface {
	VerifyUnit(shard int, stripe int64, unit []byte) error
}

// UnitWriter is a shard sink that takes each unit at its stripe's place
// instead of in stream order — a file written with pwrite, say. When every
// shard writer of an Encode implements it, the kernel stage calls
// WriteUnit with the stripe's k+r units right after coding them —
// concurrently, from the scheduler's workers, in any stripe order — and
// the in-order drain writes nothing. Implementations must be safe for
// concurrent calls and must not retain unit. A sink that only knows how to
// append (a pipe, a buffer, an O_APPEND file, one positioned past a
// header) does not implement it and keeps the in-order drain.
type UnitWriter interface {
	WriteUnit(stripe int64, unit []byte) error
}

// Config is what one pipeline run is handed.
type Config struct {
	// Sched, when non-nil, is the shared scheduler the kernel stage
	// submits stripe tasks to: the run creates one stream queue on it,
	// closes that queue before returning, and sizes its ring at two slots
	// per pool worker. The scheduler itself is a process-lifetime resource
	// the caller owns. When nil the run is inline: one slot, every stage on
	// the caller's goroutine.
	Sched *sched.Scheduler
	// Pool supplies the ring's stripe buffers. Its geometry must be
	// (k+r) x UnitSize — one buffer holds a full stripe, data then parity.
	// When nil, a private pool is created for the run. Sharing one pool
	// across streams of the same code keeps steady-state streaming
	// allocation-free.
	Pool *stripe.Pool
	// Verify, when non-nil, checks every shard unit as the decode reader
	// gathers it (encode ignores it). Failing units demote their shard —
	// see Stats.Demoted — instead of failing the stream.
	Verify UnitVerifier
	// Ctx cancels the run: no stripe is started once it is dead, and a
	// queued run also latches it into the failure flag every stage checks,
	// so a canceled stream stops encoding, stops writing, releases its ring
	// and returns an error wrapping context.Cause within one stripe's worth
	// of work. Nil means context.Background() — never canceled.
	Ctx context.Context
}

// Stats reports what one pipeline run did and where it waited. The stall
// times attribute the bottleneck: a stream dominated by ReadStall or
// WriteStall is I/O-bound; one dominated by EncodeStall is compute-bound
// and benefits from a larger pool. An encode into UnitWriter sinks writes
// its shards inside the kernel stage, so their write time shows up in
// EncodeStall (the in-order writer waits for it), and WriteStall is close
// to zero.
type Stats struct {
	// Stripes is the number of full stripes pushed through the kernel.
	Stripes int64
	// BytesIn is the number of payload bytes consumed from the source
	// (encode) or emitted to dst (decode, where it equals BytesOut).
	BytesIn int64
	// BytesOut is the number of bytes written to the sink side: shard
	// writers for encode, dst for decode.
	BytesOut int64
	// Workers and Depth say how the run ran: the scheduler's pool size and
	// the ring's slot count for a queued run, 1 and 1 for an inline one.
	Workers int
	Depth   int
	// ReadStall is time blocked reading the input side (src for encode,
	// shard readers for decode) — input I/O bound.
	ReadStall time.Duration
	// EncodeStall is time the in-order writer waited for the next stripe
	// to come out of the kernel stage (inline: kernel time itself) —
	// compute bound, plus the shard writes of UnitWriter sinks.
	EncodeStall time.Duration
	// WriteStall is time blocked writing the output side — output I/O
	// bound.
	WriteStall time.Duration
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
	// Demoted records the shards demoted to erased mid-stream (decode
	// only): a shard whose unit failed verification, truncated, or errored
	// on read is reconstructed around for all subsequent stripes instead
	// of failing the stream. Empty on clean runs. Populated on success and
	// on error alike, so a stream that ultimately fell below k survivors
	// still reports every demotion that led there.
	Demoted []ecerr.Demotion
}

// slot is one ring entry: a pooled stripe buffer, the per-slot unit
// pointer table decode hands to ReconstructData, the metadata of the
// stripe currently occupying the slot, and (queued runs) one preallocated
// kernel task bound to the slot. Carrying the stripe state in the slot
// (instead of a per-stripe job struct captured by a fresh closure) is what
// keeps a run allocation-free per stripe: the reader writes seq/rebuild
// before handing the slot on, and the channel/scheduler hand-offs order
// those writes against the kernel and the in-order writer.
type slot struct {
	buf  *stripe.Buffer
	work [][]byte

	seq     int64
	rebuild bool   // decode: some data unit of this stripe is missing
	coded   bool   // out of the kernel stage, waiting its turn to drain
	run     func() // queued kernel task; built once per run at ring setup
}

// stages are the three things done to every stripe; Encode and Decode
// each supply one set, and run is the loop around them.
type stages interface {
	// fill loads stripe seq from the input side into s, adding the time it
	// spent blocked there to *stall. Stripes are filled in order, one at a
	// time. last marks the stream's final stripe; io.EOF (the value
	// itself) says the stream ended before stripe seq and s holds nothing.
	fill(s *slot, seq int64, stall *time.Duration) (last bool, err error)
	// kernel runs the codec on a filled slot. Queued runs call it from pool
	// workers, several slots at once, finishing in any order.
	kernel(s *slot) error
	// drain writes a coded slot to the output side and returns how many
	// bytes that was. Stripes are drained in order, one at a time.
	drain(s *slot) (int64, error)
}

// ctxErr wraps a context's cancellation cause into the stream error the
// caller sees; errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both survive the wrap.
func ctxErr(ctx context.Context) error {
	return fmt.Errorf("gemmec: stream canceled: %w", context.Cause(ctx))
}

// norm validates cfg against the codec geometry and fills defaults.
func norm(c Codec, cfg Config) (Config, error) {
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	total, unit := c.K()+c.R(), c.UnitSize()
	if cfg.Pool == nil {
		p, err := stripe.NewPool(total, unit)
		if err != nil {
			return cfg, err
		}
		cfg.Pool = p
	} else if cfg.Pool.K() != total || cfg.Pool.UnitSize() != unit {
		return cfg, fmt.Errorf("pipeline: pool geometry %dx%d, want (k+r)x unit = %dx%d",
			cfg.Pool.K(), cfg.Pool.UnitSize(), total, unit)
	}
	return cfg, nil
}

// failer latches the first error of a run. Every stage checks it and,
// once it is set, passes its slot on untouched, so the ring drains.
type failer struct {
	once sync.Once
	err  error
	set  atomic.Bool // stored after err is written: a true load may read err
}

func (f *failer) fail(err error) {
	f.once.Do(func() {
		f.err = err
		f.set.Store(true)
	})
}

func (f *failer) failed() bool { return f.set.Load() }

// loop is the state of one run: the ring and where each stage stands.
type loop struct {
	sg  stages
	ctx context.Context
	st  Stats // as the stages add it up: ReadStall is the reader's field, the rest the writer's
	f   failer

	// ring: slot seq mod len(slots) holds stripe seq. free carries one
	// token per slot that is empty — never used, or drained — and because
	// stripes drain in order, a token in hand means the slot the next
	// stripe maps to is one of them.
	slots []slot
	free  chan struct{}

	// Queued runs only: the stream's queue on the scheduler, and the slots
	// coming out of the kernel stage, in completion order.
	q     *sched.Queue
	coded chan *slot

	next int64 // in-order writer: the stripe to drain next
}

func (l *loop) at(seq int64) *slot { return &l.slots[seq%int64(len(l.slots))] }

// run is the stripe loop: stripes first, first+1, … flow through sg's
// three stages over a ring of pooled buffers until fill reports the last
// one, a stage fails, or cfg.Ctx dies. Inline, the ring is one slot and
// the caller's goroutine does everything; queued, the ring is two slots
// per pool worker, a reader goroutine fills and submits, pool workers run
// the kernel, and the caller's goroutine drains in stripe order — the same
// read, kernel and deliver steps either way.
func run(c Codec, cfg Config, first int64, inline bool, sg stages) (Stats, error) {
	workers, depth := 1, 1
	if !inline {
		workers = cfg.Sched.Workers()
		depth = 2 * workers
	}
	l := &loop{sg: sg, ctx: cfg.Ctx, st: Stats{Workers: workers, Depth: depth}, next: first,
		slots: make([]slot, depth), free: make(chan struct{}, depth)}
	defer func() {
		for i := range l.slots {
			if b := l.slots[i].buf; b != nil {
				cfg.Pool.Put(b) //nolint:errcheck // geometry matches by construction
			}
		}
	}()
	n := c.K() + c.R()
	work := make([][]byte, depth*n)
	for i := range l.slots {
		b, err := cfg.Pool.Get()
		if err != nil {
			return l.st, err
		}
		l.slots[i].buf, l.slots[i].work = b, work[i*n:(i+1)*n:(i+1)*n]
		l.free <- struct{}{}
	}
	if inline {
		l.read(first)
	} else {
		l.q = cfg.Sched.NewQueue()
		defer l.q.Close()
		l.coded = make(chan *slot, depth)
		// One kernel task per slot, built before traffic: steady-state
		// stripes submit a prebuilt closure and allocate nothing.
		for i := range l.slots {
			s := &l.slots[i]
			s.run = func() {
				l.kernel(s)
				l.coded <- s // cap == ring size: never blocks a pool worker
			}
		}
		// A dying context latches into the failure flag at once, not at the
		// reader's next stripe: kernels and writes already in flight are
		// skipped. AfterFunc costs nothing on the clean path (no goroutine
		// until cancellation).
		stop := context.AfterFunc(cfg.Ctx, func() { l.f.fail(ctxErr(cfg.Ctx)) })
		defer stop()
		go func() {
			// Closing coded is the reader's last act and publishes all it
			// wrote (ReadStall, the stages' own state) to the writer below.
			defer close(l.coded)
			defer l.q.Wait() // every submitted task finishes before coded closes
			// Label context precomputed at package init: attaching it is a
			// pointer store, keeping the per-call reader allocation-free.
			pprof.SetGoroutineLabels(readLabelCtx)
			l.read(first)
		}()
		for {
			t0 := time.Now()
			s, ok := <-l.coded
			l.st.EncodeStall += time.Since(t0)
			if !ok {
				break
			}
			l.deliver(s)
		}
	}
	if l.f.failed() {
		return l.st, l.f.err
	}
	return l.st, nil
}

// read is the reader stage: sequential by nature (sources are streams and
// must be consumed in stripe order). It takes a free slot, fills it and
// hands it to the kernel stage — a task on the scheduler's queue, or, for
// an inline run, right here, followed by the in-order writer's turn.
func (l *loop) read(first int64) {
	for seq := first; ; seq++ {
		<-l.free
		if l.ctx.Err() != nil {
			l.f.fail(ctxErr(l.ctx))
		}
		if l.f.failed() {
			return
		}
		s := l.at(seq)
		last, err := l.sg.fill(s, seq, &l.st.ReadStall)
		if err == io.EOF {
			return
		}
		if err != nil {
			l.f.fail(err)
			return
		}
		s.seq = seq
		if l.q != nil {
			l.q.Submit(s.run)
		} else {
			t0 := time.Now()
			l.kernel(s)
			l.st.EncodeStall += time.Since(t0)
			l.deliver(s)
		}
		if last {
			return
		}
	}
}

// kernel is the kernel stage for one filled slot.
func (l *loop) kernel(s *slot) {
	if l.f.failed() {
		return
	}
	if err := l.sg.kernel(s); err != nil {
		l.f.fail(err)
	}
}

// deliver is the in-order writer: it takes one slot out of the kernel
// stage and drains every stripe that is now next in line, so output is
// byte-identical whatever order the pool finished them in. One goroutine
// calls it, and only it touches coded: the slot stripe next maps to is
// coded exactly when it holds stripe next, because the reader cannot reuse
// it before that stripe has drained. A drained slot goes back to the
// reader — after a failure too, undrained, which is what lets a reader
// waiting on the ring see the failure.
func (l *loop) deliver(s *slot) {
	s.coded = true
	for s = l.at(l.next); s.coded; s = l.at(l.next) {
		s.coded = false
		l.next++
		if !l.f.failed() {
			t0 := time.Now()
			n, err := l.sg.drain(s)
			l.st.WriteStall += time.Since(t0)
			if err != nil {
				l.f.fail(err)
			} else {
				l.st.Stripes++
				l.st.BytesOut += n
			}
		}
		l.free <- struct{}{} // cap == ring size: never blocks
	}
}

// encoder is Encode's set of stages: read the source and pad, Encode,
// scatter the stripe to the shard writers — in the kernel task when they
// are UnitWriters, in the in-order drain otherwise.
type encoder struct {
	c      Codec
	src    io.Reader
	shards []io.Writer
	units  []UnitWriter // the shards as UnitWriters, nil unless every one is
	total  int64        // payload bytes read so far; the reader stage's
}

// unitWriters returns shards as UnitWriters when every one of them is, and
// nil otherwise.
func unitWriters(shards []io.Writer) []UnitWriter {
	for _, w := range shards {
		if _, ok := w.(UnitWriter); !ok {
			return nil
		}
	}
	units := make([]UnitWriter, len(shards))
	for i, w := range shards {
		units[i] = w.(UnitWriter)
	}
	return units
}

func (e *encoder) fill(s *slot, _ int64, stall *time.Duration) (bool, error) {
	data := s.buf.Raw()[:e.c.K()*e.c.UnitSize()]
	t0 := time.Now()
	n, err := io.ReadFull(e.src, data)
	*stall += time.Since(t0)
	e.total += int64(n)
	switch {
	case errors.Is(err, io.EOF):
		return false, io.EOF // clean end on a stripe boundary
	case errors.Is(err, io.ErrUnexpectedEOF):
		clear(data[n:])
		return true, nil // the padded final stripe consumed the EOF
	case err != nil:
		return false, fmt.Errorf("gemmec: read source: %w", err)
	}
	return false, nil
}

func (e *encoder) kernel(s *slot) error {
	raw, unit := s.buf.Raw(), e.c.UnitSize()
	split := e.c.K() * unit
	if err := e.c.Encode(raw[:split], raw[split:split+e.c.R()*unit]); err != nil {
		return err
	}
	for i, w := range e.units {
		if err := w.WriteUnit(s.seq, raw[i*unit:(i+1)*unit]); err != nil {
			return fmt.Errorf("gemmec: write shard %d: %w", i, err)
		}
	}
	return nil
}

func (e *encoder) drain(s *slot) (int64, error) {
	raw, unit := s.buf.Raw(), e.c.UnitSize()
	if e.units == nil { // else the kernel task wrote the stripe
		for i, w := range e.shards {
			if _, err := w.Write(raw[i*unit : (i+1)*unit]); err != nil {
				return 0, fmt.Errorf("gemmec: write shard %d: %w", i, err)
			}
		}
	}
	return int64(len(e.shards) * unit), nil
}

// Encode streams src through the codec into the k+r shard writers and
// returns the payload byte count. The caller must have validated shards
// (length k+r, no nils); this is rechecked cheaply here because the bench
// harness calls the package directly. It runs queued on cfg.Sched when
// there is one, inline otherwise. When every shard writer is a UnitWriter
// the kernel stage writes the units; otherwise the in-order drain does.
func Encode(c Codec, src io.Reader, shards []io.Writer, cfg Config) (int64, Stats, error) {
	cfg, err := norm(c, cfg)
	if err != nil {
		return 0, Stats{}, err
	}
	if len(shards) != c.K()+c.R() {
		return 0, Stats{}, fmt.Errorf("pipeline: %d shard writers, want k+r=%d", len(shards), c.K()+c.R())
	}
	if cfg.Ctx.Err() != nil {
		return 0, Stats{}, ctxErr(cfg.Ctx)
	}
	start := time.Now()
	e := &encoder{c: c, src: src, shards: shards, units: unitWriters(shards)}
	st, err := run(c, cfg, 0, cfg.Sched == nil, e)
	st.BytesIn = e.total
	st.Elapsed = time.Since(start)
	return e.total, st, err
}

// Plan is the read set of one decode: which units of which shards a clean
// decode reads to emit payload bytes [Off, Off+Len). Unit u of the payload
// lives in stripe u/k on data shard u%k, so a window touches each data
// shard over one contiguous stripe interval (possibly empty) and touches
// parity not at all: a clean read moves the bytes it returns and nothing
// else. The demoter widens the plan when a planned unit faults — see
// Shards.
type Plan struct {
	// Off and Len are the payload window.
	Off, Len int64
	// Base and End bound the stripes the decode walks: [Base, End) are the
	// stripes covering the window, in manifest (whole-object) numbering.
	Base, End int64
	// From and To hold one stripe interval per shard, k+r of each: the
	// decode reads shard i's units of stripes [From[i], To[i]). Equal
	// bounds mean the shard is not read. Both nil is the full plan: every
	// shard, every stripe of [Base, End).
	From, To []int64
}

// Interval returns the stripes [from, to) the plan reads of shard i.
func (p Plan) Interval(i int) (from, to int64) {
	if p.From == nil {
		return p.Base, p.End
	}
	return p.From[i], p.To[i]
}

// NewPlan plans a clean read of payload window [off, off+length) from a
// (k, r, unit) shard set: exactly the data units the window overlaps. The
// caller has checked the window against the payload's size.
func NewPlan(k, r, unit int, off, length int64) Plan {
	n := k + r
	iv := make([]int64, 2*n)
	p := Plan{Off: off, Len: length, From: iv[:n:n], To: iv[n:]}
	if length <= 0 {
		return p
	}
	stripeBytes := int64(k) * int64(unit)
	p.Base, p.End = off/stripeBytes, (off+length-1)/stripeBytes+1
	for i := range p.From {
		p.From[i], p.To[i] = p.span(i, k, unit)
	}
	return p
}

// span returns the stripes in which shard i holds a unit of the window:
// all of [Base, End) for a data shard, less the first stripe when the
// window starts past the shard's unit there and the last when it ends
// before it. Parity holds none.
func (p *Plan) span(i, k, unit int) (from, to int64) {
	if i >= k || p.Len <= 0 {
		return p.Base, p.Base
	}
	first, last := p.Off/int64(unit), (p.Off+p.Len-1)/int64(unit) // the window's units, payload order
	from, to = p.Base, p.End
	if int64(i) < first%int64(k) {
		from++
	}
	if int64(i) > last%int64(k) {
		to--
	}
	if from >= to {
		return p.Base, p.Base
	}
	return from, to
}

// FullPlan plans a read of every unit of every shard, data and parity,
// over the first stripes stripes of a set holding a payload of size
// bytes: the read set of a repair walk and of a caller who hands
// DecodeStream its own open streams.
func FullPlan(size, stripes int64) Plan { return Plan{Len: size, End: stripes} }

// Shards is the input side of one decode: the plan, what is already known
// lost, and how to reach a shard. Decode opens a shard the first time the
// plan reads it, so a shard the plan never reads costs nothing.
//
// A fault on a planned unit — open error, read error, short read, failed
// verification — demotes that shard and escalates the plan: from that
// stripe on it reads the k cheapest survivors (data shards first, then
// parity), which is enough to reconstruct whatever the faulty shard was
// to supply; stripes already emitted stand. When Lost already names a
// shard the window needs, the plan starts out escalated the same way.
type Shards struct {
	Plan Plan
	// Lost marks shards known unusable before the decode starts (k+r
	// entries, or nil for none): never opened, never read.
	Lost []bool
	// Open returns shard i positioned at the first byte of its unit of
	// stripe from, good for reading up to stripe to. Decode calls it when
	// it first reads the shard, and again only if escalation moves the
	// shard's interval away from where its reader stands.
	Open func(shard int, from, to int64) (io.Reader, error)
}

// Readers is the Shards of a caller who holds one open stream per shard,
// each at its first byte, over a payload of size bytes: nil readers are
// lost, and the plan is the full one — every stream handed in is read and
// checked, stripe by stripe.
func Readers(c Codec, readers []io.Reader, size int64) Shards {
	var lost []bool
	for i, rd := range readers {
		if rd == nil {
			if lost == nil {
				lost = make([]bool, len(readers))
			}
			lost[i] = true
		}
	}
	stripeBytes := int64(c.K()) * int64(c.UnitSize())
	return Shards{
		Plan: FullPlan(size, (size+stripeBytes-1)/stripeBytes),
		Lost: lost,
		Open: func(i int, _, _ int64) (io.Reader, error) { return readers[i], nil },
	}
}

// Decode streams payload window [Plan.Off, Plan.Off+Plan.Len) of the
// shard set to dst, reading the units in.Plan names and reconstructing
// around lost and faulty shards. The caller validates survivor count;
// geometry is rechecked here. It runs queued on cfg.Sched when there is
// one and the window is longer than a stripe, inline otherwise.
func Decode(c Codec, in Shards, dst io.Writer, cfg Config) (Stats, error) {
	var st Stats
	cfg, err := norm(c, cfg)
	if err != nil {
		return st, err
	}
	n := c.K() + c.R()
	if (in.Plan.From != nil && (len(in.Plan.From) != n || len(in.Plan.To) != n)) || (in.Lost != nil && len(in.Lost) != n) {
		return st, fmt.Errorf("pipeline: read plan is not for k+r=%d shards", n)
	}
	if in.Plan.Off < 0 || in.Plan.Len < 0 {
		return st, fmt.Errorf("pipeline: negative window [off=%d,len=%d)", in.Plan.Off, in.Plan.Len)
	}
	if cfg.Ctx.Err() != nil {
		return st, ctxErr(cfg.Ctx)
	}
	start := time.Now()
	d, err := newDemoter(c, in, dst, cfg.Verify)
	if err == nil && in.Plan.Len > 0 {
		inline := cfg.Sched == nil || in.Plan.End-in.Plan.Base <= 1
		st, err = run(c, cfg, in.Plan.Base, inline, d)
		st.Demoted = d.demoted
		st.BytesIn = st.BytesOut
	}
	st.Elapsed = time.Since(start)
	return st, err
}

// input is the demoter's view of one shard.
type input struct {
	lost bool
	// from and to are the stripes the decode reads of this shard: the
	// plan's interval, widened by escalation.
	from, to int64
	// need is the subset of those the window itself wants: this data
	// shard's units inside [Off, Off+Len). Empty for parity.
	needFrom, needTo int64
	// rd, when non-nil, stands at the start of stripe pos and is good up
	// to stripe lim.
	rd       io.Reader
	pos, lim int64
}

// demoter is Decode's set of stages — gather the planned units,
// ReconstructData when one the window wants is missing, emit the window's
// share — and, for the first of them, the reader stage's view of the shard
// set: the plan, which shards are open, which are lost or were demoted
// mid-stream, and whether enough survive to cover k. A shard that fails —
// open error, unit checksum mismatch, truncation, read error — is demoted
// to erased from that stripe on: its units are reconstructed for the rest
// of the stream instead of failing the read. Everything fill mutates is
// the reader stage's alone (kernel and drain read only what never changes),
// so a demoter needs no locking; the end of the run establishes
// happens-before for the demotions it records.
type demoter struct {
	c       Codec
	dst     io.Writer
	plan    Plan
	in      []input
	open    func(shard int, from, to int64) (io.Reader, error)
	k, unit int
	verify  UnitVerifier
	alive   int
	demoted []ecerr.Demotion
}

func newDemoter(c Codec, s Shards, dst io.Writer, verify UnitVerifier) (*demoter, error) {
	k, unit := c.K(), c.UnitSize()
	d := &demoter{c: c, dst: dst, plan: s.Plan, in: make([]input, k+c.R()), open: s.Open, k: k, unit: unit, verify: verify}
	degraded := false
	for i := range d.in {
		in := &d.in[i]
		in.from, in.to = s.Plan.Interval(i)
		in.needFrom, in.needTo = s.Plan.span(i, k, unit)
		if in.lost = s.Lost != nil && s.Lost[i]; in.lost {
			degraded = degraded || in.needFrom < in.needTo
		} else {
			d.alive++
		}
	}
	if d.alive < k {
		return nil, fmt.Errorf("gemmec: only %d of %d shards usable (need k=%d): %w", d.alive, len(d.in), k, ecerr.ErrTooFewShards)
	}
	if degraded {
		d.widen(s.Plan.Base) // the window needs a shard that is already gone
	}
	return d, nil
}

// demote marks shard i erased from stripe on. It returns nil while enough
// shards survive to keep decoding, and the terminal error — wrapping the
// Demotion (hence ErrShardDemoted and the cause) and ErrTooFewShards —
// once the survivor count drops below k.
func (d *demoter) demote(i int, stripe int64, cause error) error {
	d.in[i].lost, d.in[i].rd = true, nil
	d.alive--
	d.demoted = append(d.demoted, ecerr.Demotion{Shard: i, Stripe: stripe, Cause: cause})
	if d.alive < d.k {
		return fmt.Errorf("gemmec: only %d of %d shard streams still usable (need k=%d): %w: %w",
			d.alive, len(d.in), d.k, d.demoted[len(d.demoted)-1], ecerr.ErrTooFewShards)
	}
	return nil
}

// widen puts the k cheapest survivors — data shards first, then parity,
// in index order — in the read set from stripe to the end of the window:
// enough to reconstruct whatever a lost or demoted shard was to supply,
// and no more. It reports whether that added a shard to this stripe.
func (d *demoter) widen(stripe int64) bool {
	added := false
	n := 0
	for i := range d.in {
		in := &d.in[i]
		if in.lost {
			continue
		}
		if n++; n > d.k {
			break
		}
		if stripe < in.from || stripe >= in.to {
			in.from, added = stripe, true
		}
		in.to = d.plan.End
	}
	return added
}

// readUnit reads and verifies shard i's unit of stripe into u, opening or
// repositioning the shard first when its reader does not stand there. A
// non-nil return is the cause the shard is demoted for.
func (d *demoter) readUnit(i int, stripe int64, u []byte, stall *time.Duration) error {
	in := &d.in[i]
	t0 := time.Now()
	var err error
	if in.rd == nil || in.pos != stripe || in.lim <= stripe {
		if in.rd, err = d.open(i, stripe, in.to); err != nil {
			*stall += time.Since(t0)
			return fmt.Errorf("gemmec: open shard %d at stripe %d: %w", i, stripe, err)
		}
		in.pos, in.lim = stripe, in.to
	}
	_, err = io.ReadFull(in.rd, u)
	*stall += time.Since(t0)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("gemmec: shard %d truncated at stripe %d: %w (%w)", i, stripe, ecerr.ErrShardTruncated, ecerr.ErrCorruptShard)
		}
		return fmt.Errorf("gemmec: read shard %d: %w", i, err)
	}
	in.pos++
	if d.verify != nil {
		return d.verify.VerifyUnit(i, stripe, u)
	}
	return nil
}

// fill reads the units the plan names for one stripe into the slot,
// verifying each as it lands and demoting shards that fail instead of
// failing the stream; a demotion widens the plan, and the stripe is
// rescanned for the units that adds. s.work[i] is left nil for a unit
// that was not read — lost, demoted, or simply not planned — and
// s.rebuild says whether the stripe needs reconstruction (a data unit the
// window wants is missing). err is non-nil only when demotions leave
// fewer than k usable shards.
func (d *demoter) fill(s *slot, stripe int64, stall *time.Duration) (last bool, err error) {
	raw := s.buf.Raw()
	clear(s.work)
	for rescan := true; rescan; {
		rescan = false
		for i := range d.in {
			in := &d.in[i]
			if s.work[i] != nil || in.lost || stripe < in.from || stripe >= in.to {
				continue
			}
			u := raw[i*d.unit : (i+1)*d.unit]
			cause := d.readUnit(i, stripe, u, stall)
			if cause == nil {
				s.work[i] = u
				continue
			}
			if err := d.demote(i, stripe, cause); err != nil {
				return false, err
			}
			if d.widen(stripe) {
				rescan = true
			}
		}
	}
	s.rebuild = false
	for i := 0; i < d.k; i++ {
		if in := &d.in[i]; s.work[i] == nil && in.needFrom <= stripe && stripe < in.needTo {
			s.rebuild = true
			break
		}
	}
	return stripe+1 >= d.plan.End, nil
}

// kernel reconstructs the stripe's missing data units into their own
// place in the slot's buffer, so a rebuilt stripe allocates nothing. Only
// stripes with one the window wants pay for it; the rest pass straight
// through.
func (d *demoter) kernel(s *slot) error {
	if !s.rebuild {
		return nil
	}
	raw := s.buf.Raw()
	for i := 0; i < d.k; i++ {
		if s.work[i] == nil {
			s.work[i] = raw[i*d.unit : i*d.unit : (i+1)*d.unit]
		}
	}
	return d.c.ReconstructData(s.work)
}

func (d *demoter) drain(s *slot) (int64, error) {
	return d.plan.emit(d.dst, s.work, s.seq, d.k, d.unit)
}

// emit writes the window's share of one decoded stripe to dst: the data
// units from the window's first byte in this stripe to its last. Every
// unit it touches was read or reconstructed (fill's rebuild rule).
func (p *Plan) emit(dst io.Writer, work [][]byte, stripe int64, k, unit int) (int64, error) {
	stripeBytes := int64(k) * int64(unit)
	lo := max(p.Off-stripe*stripeBytes, 0)
	hi := min(p.Off+p.Len-stripe*stripeBytes, stripeBytes)
	for at := lo; at < hi; {
		i := at / int64(unit)
		a := at - i*int64(unit)
		b := min(hi-i*int64(unit), int64(unit))
		if _, err := dst.Write(work[i][a:b]); err != nil {
			return at - lo, fmt.Errorf("gemmec: write output: %w", err)
		}
		at += b - a
	}
	return hi - lo, nil
}
