// Package pipeline is the concurrent streaming engine behind the public
// EncodeStream/DecodeStream API. The paper's §5 argument is that an EC
// library wins or loses on integration: the compiled kernel is only as
// fast as the path that feeds it contiguous stripes. A serial stream loop
// leaves the kernel idle behind I/O on multicore, so this package overlaps
// three stages over a bounded ring of stripe buffers drawn from a
// stripe.Pool:
//
//	reader  — fills the data half of a free ring slot from src
//	workers — run the compiled kernel on up to Workers stripes at once
//	writer  — scatters finished stripes to the k+r shard writers,
//	          strictly in stripe order (sequence-numbered reordering)
//
// The kernel stage no longer owns its goroutines. Each stripe is
// submitted as a task to an internal/sched scheduler — a bounded worker
// pool with per-stream FIFO queues and fair round-robin dispatch — so a
// server shares ONE pool across every concurrent stream instead of
// spawning (and tearing down) a goroutine set per request. Config.Sched
// selects the shared pool; without one, Workers > 1 builds a private
// per-call scheduler (the legacy WithStreamWorkers behavior, preserved
// exactly: shard output is byte-identical either way), and Workers == 1
// keeps the fully serial, goroutine-free baseline loop.
//
// Decode runs the same ring in reverse, over a read plan (Plan, Shards):
// per stripe the reader gathers the units the plan names — for a clean
// read, the data units inside the requested window and nothing else —
// opening each shard the first time it is read, optionally verifying each
// unit against a per-stripe checksum as it lands (Config.Verify) and
// demoting shards that fail — open error, checksum mismatch, truncation,
// read error — to erased mid-stream instead of failing the read; a
// demotion widens the plan to the k cheapest survivors, workers
// reconstruct the missing data units the window needs, and the in-order
// writer emits the window's share of the stripe to dst. A window of at
// most one stripe skips the ring: it decodes on the caller's goroutine.
//
// Backpressure falls out of the ring: at most Depth stripes are in flight,
// so every channel send below is non-blocking by construction (each
// channel's capacity is Depth) and the only blocking points are ring
// acquisition, source reads, kernel runs and sink writes — exactly the
// quantities Stats reports.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
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
// satisfies it.
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

// Config sizes one pipeline run.
type Config struct {
	// Workers is the number of concurrent kernel goroutines; 1 selects a
	// fully serial loop with no goroutines at all (the baseline path).
	// Ignored when Sched is set — the shared pool's size governs.
	Workers int
	// Sched, when non-nil, is the shared scheduler the kernel stage
	// submits stripe tasks to. The run creates one stream queue on it and
	// closes that queue before returning; the scheduler itself is a
	// server-lifetime resource the caller owns. When nil and Workers > 1,
	// a private scheduler is built for the call and torn down after — the
	// legacy per-call pool.
	Sched *sched.Scheduler
	// Depth is the ring size: the maximum number of stripes in flight.
	Depth int
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
	// Ctx cancels the run: the stages observe it between stripes (the
	// serial paths check it per iteration; the pipelined paths latch it
	// into the failure broadcast), so a canceled stream stops encoding,
	// stops writing, releases its ring and returns an error wrapping
	// context.Cause within one stripe's worth of work. Nil means
	// context.Background() — never canceled.
	Ctx context.Context
}

// Stats reports what one pipeline run did and where it waited. The stall
// times attribute the bottleneck: a stream dominated by ReadStall or
// WriteStall is I/O-bound; one dominated by EncodeStall is compute-bound
// and benefits from more workers.
type Stats struct {
	// Stripes is the number of full stripes pushed through the kernel.
	Stripes int64
	// BytesIn is the number of payload bytes consumed from the source
	// (encode) or emitted to dst (decode, where it equals BytesOut).
	BytesIn int64
	// BytesOut is the number of bytes written to the sink side: shard
	// writers for encode, dst for decode.
	BytesOut int64
	// Workers and Depth echo the effective pipeline shape.
	Workers int
	Depth   int
	// ReadStall is time blocked reading the input side (src for encode,
	// shard readers for decode) — input I/O bound.
	ReadStall time.Duration
	// EncodeStall is time the in-order writer waited for the next stripe
	// to come out of the kernel stage (on the serial path: kernel time
	// itself) — compute bound.
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
// pointer table decode workers hand to ReconstructData, the metadata of
// the stripe currently occupying the slot, and one preallocated kernel
// task bound to the slot. Carrying the stripe state in the slot (instead
// of a per-stripe job struct captured by a fresh closure) is what keeps
// the pipelined paths allocation-free per stripe: the reader writes
// seq/rebuild before submitting s.run, and the channel/scheduler
// handoffs order those writes against the task and the in-order writer.
type slot struct {
	buf  *stripe.Buffer
	work [][]byte

	seq     int64
	rebuild bool   // decode: some data unit of this stripe is missing
	run     func() // kernel task; built once per run at ring setup
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
	if cfg.Workers < 1 {
		return cfg, fmt.Errorf("pipeline: workers must be >= 1, have %d", cfg.Workers)
	}
	if cfg.Depth < 1 {
		return cfg, fmt.Errorf("pipeline: depth must be >= 1, have %d", cfg.Depth)
	}
	if cfg.Depth < cfg.Workers {
		cfg.Depth = cfg.Workers
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

// ensureSched attaches a scheduler when the pipelined path needs one:
// legacy Workers > 1 calls without a shared pool get a private per-call
// scheduler, torn down by the returned stop func. Serial (Workers == 1,
// no Sched) runs stay scheduler-free.
func ensureSched(cfg Config) (Config, func()) {
	if cfg.Sched != nil || cfg.Workers == 1 {
		return cfg, func() {}
	}
	s := sched.New(sched.Config{Workers: cfg.Workers})
	cfg.Sched = s
	return cfg, s.Close
}

// ring draws Depth slots from the pool. release returns them.
func ring(c Codec, cfg Config) ([]*slot, func(), error) {
	slots := make([]*slot, cfg.Depth)
	for i := range slots {
		b, err := cfg.Pool.Get()
		if err != nil {
			for _, s := range slots[:i] {
				cfg.Pool.Put(s.buf) //nolint:errcheck // geometry matches by construction
			}
			return nil, nil, err
		}
		slots[i] = &slot{buf: b, work: make([][]byte, c.K()+c.R())}
	}
	release := func() {
		for _, s := range slots {
			cfg.Pool.Put(s.buf) //nolint:errcheck // geometry matches by construction
		}
	}
	return slots, release, nil
}

// failer latches the first error and broadcasts cancellation.
type failer struct {
	once sync.Once
	err  error
	done chan struct{}
}

func newFailer() *failer { return &failer{done: make(chan struct{})} }

func (f *failer) fail(err error) {
	f.once.Do(func() {
		f.err = err
		close(f.done)
	})
}

func (f *failer) failed() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Encode streams src through the codec into the k+r shard writers and
// returns the payload byte count. The caller must have validated shards
// (length k+r, no nils); this is rechecked cheaply here because the bench
// harness calls the package directly.
func Encode(c Codec, src io.Reader, shards []io.Writer, cfg Config) (int64, Stats, error) {
	var st Stats
	cfg, err := norm(c, cfg)
	if err != nil {
		return 0, st, err
	}
	if len(shards) != c.K()+c.R() {
		return 0, st, fmt.Errorf("pipeline: %d shard writers, want k+r=%d", len(shards), c.K()+c.R())
	}
	if cfg.Ctx.Err() != nil {
		return 0, st, ctxErr(cfg.Ctx)
	}
	cfg, stopSched := ensureSched(cfg)
	defer stopSched()
	st.Workers, st.Depth = cfg.Workers, cfg.Depth
	if cfg.Sched != nil {
		st.Workers = cfg.Sched.Workers()
	}
	start := time.Now()
	var total int64
	if cfg.Sched == nil {
		total, err = encodeSerial(c, src, shards, cfg, &st)
	} else {
		total, err = encodePipelined(c, src, shards, cfg, &st)
	}
	st.Elapsed = time.Since(start)
	return total, st, err
}

func encodeSerial(c Codec, src io.Reader, shards []io.Writer, cfg Config, st *Stats) (int64, error) {
	k, r, unit := c.K(), c.R(), c.UnitSize()
	buf, err := cfg.Pool.Get()
	if err != nil {
		return 0, err
	}
	defer cfg.Pool.Put(buf) //nolint:errcheck // geometry matches by construction
	raw := buf.Raw()
	data, parity := raw[:k*unit], raw[k*unit:(k+r)*unit]

	var total int64
	for {
		if cfg.Ctx.Err() != nil {
			return total, ctxErr(cfg.Ctx)
		}
		t0 := time.Now()
		n, err := io.ReadFull(src, data)
		st.ReadStall += time.Since(t0)
		total += int64(n)
		if errors.Is(err, io.EOF) {
			break // clean end on a stripe boundary
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			clear(data[n:])
			err = nil
		}
		if err != nil {
			return total, fmt.Errorf("gemmec: read source: %w", err)
		}
		t1 := time.Now()
		if err := c.Encode(data, parity); err != nil {
			return total, err
		}
		st.EncodeStall += time.Since(t1)
		t2 := time.Now()
		werr := writeStripe(shards, raw, k, r, unit)
		st.WriteStall += time.Since(t2)
		if werr != nil {
			return total, werr
		}
		st.Stripes++
		st.BytesOut += int64((k + r) * unit)
		if n < len(data) {
			break // padded final stripe consumed the EOF
		}
	}
	st.BytesIn = total
	return total, nil
}

func encodePipelined(c Codec, src io.Reader, shards []io.Writer, cfg Config, st *Stats) (int64, error) {
	k, r, unit := c.K(), c.R(), c.UnitSize()
	stripeBytes := k * unit
	slots, release, err := ring(c, cfg)
	if err != nil {
		return 0, err
	}
	defer release()

	free := make(chan *slot, cfg.Depth)
	results := make(chan *slot, cfg.Depth)
	f := newFailer()
	// One encode task per ring slot, built before traffic: the reader only
	// stamps seq and submits, so steady-state stripes allocate nothing.
	for _, s := range slots {
		s := s
		s.run = func() {
			if f.failed() {
				return // drain without encoding
			}
			raw := s.buf.Raw()
			if err := c.Encode(raw[:stripeBytes], raw[stripeBytes:(k+r)*unit]); err != nil {
				f.fail(err)
				return
			}
			results <- s
		}
		free <- s
	}
	// Cancellation rides the existing failure broadcast: the moment the
	// context dies, every stage sees f.done and drains. AfterFunc costs
	// nothing on the clean path (no goroutine until cancellation).
	stop := context.AfterFunc(cfg.Ctx, func() { f.fail(ctxErr(cfg.Ctx)) })
	defer stop()

	// Kernel stage: one stream queue on the scheduler (shared or per-call;
	// see ensureSched). At most Depth stripes are in flight — ring slots
	// bound the submissions — so the results send inside a task never
	// blocks a pool worker.
	q := cfg.Sched.NewQueue()
	defer q.Close()

	// Reader: sequential by nature (src is a stream); owns total/readStall
	// until the final wait establishes happens-before.
	var total int64
	var readStall time.Duration
	var wgRead sync.WaitGroup
	wgRead.Add(1)
	go func() {
		defer wgRead.Done()
		defer close(results)
		defer q.Wait() // every submitted task finishes before results closes
		// Label context precomputed at package init: attaching it is a
		// pointer store, keeping the per-call reader allocation-free.
		pprof.SetGoroutineLabels(readLabelCtx)
		for seq := int64(0); ; seq++ {
			var s *slot
			select {
			case s = <-free:
			case <-f.done:
				return
			}
			data := s.buf.Raw()[:stripeBytes]
			t0 := time.Now()
			n, err := io.ReadFull(src, data)
			readStall += time.Since(t0)
			total += int64(n)
			if errors.Is(err, io.EOF) {
				return
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				clear(data[n:])
				err = nil
			}
			if err != nil {
				f.fail(fmt.Errorf("gemmec: read source: %w", err))
				return
			}
			s.seq = seq
			q.Submit(s.run)
			if n < stripeBytes {
				return
			}
		}
	}()

	// In-order writer (this goroutine): reorder by sequence number so shard
	// output is byte-identical to the serial path regardless of worker
	// completion order.
	pending := make(map[int64]*slot, cfg.Depth)
	var next int64
	for {
		t0 := time.Now()
		s, ok := <-results
		st.EncodeStall += time.Since(t0)
		if !ok {
			break
		}
		pending[s.seq] = s
		for {
			ss, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if !f.failed() {
				t1 := time.Now()
				werr := writeStripe(shards, ss.buf.Raw(), k, r, unit)
				st.WriteStall += time.Since(t1)
				if werr != nil {
					f.fail(werr)
				} else {
					st.Stripes++
					st.BytesOut += int64((k + r) * unit)
				}
			}
			free <- ss // cap == Depth: never blocks
		}
	}
	wgRead.Wait()
	st.ReadStall = readStall
	st.BytesIn = total
	return total, f.err
}

// writeStripe scatters the k data units and r parity units of one raw
// stripe buffer to the shard writers.
func writeStripe(shards []io.Writer, raw []byte, k, r, unit int) error {
	for i := 0; i < k+r; i++ {
		if _, err := shards[i].Write(raw[i*unit : (i+1)*unit]); err != nil {
			return fmt.Errorf("gemmec: write shard %d: %w", i, err)
		}
	}
	return nil
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
// geometry is rechecked here. A window of at most one stripe, and any
// run without a scheduler, decodes serially on the caller's goroutine.
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
	serial := in.Plan.End-in.Plan.Base <= 1
	stopSched := func() {}
	if !serial {
		cfg, stopSched = ensureSched(cfg)
	}
	defer stopSched()
	st.Workers, st.Depth = cfg.Workers, cfg.Depth
	if cfg.Sched != nil {
		st.Workers = cfg.Sched.Workers()
	}
	start := time.Now()
	d, err := newDemoter(c, in, cfg.Verify)
	if err == nil {
		if serial || cfg.Sched == nil {
			err = decodeSerial(c, d, dst, cfg, &st)
		} else {
			err = decodePipelined(c, d, dst, cfg, &st)
		}
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

// demoter owns the decode reader stage's view of the shard set: the
// plan, which shards are open, which are lost or were demoted mid-stream,
// and whether enough survive to cover k. A shard that fails — open error,
// unit checksum mismatch, truncation, read error — is demoted to erased
// from that stripe on: its units are reconstructed for the rest of the
// stream instead of failing the read. Exactly one goroutine (the reader
// stage) uses a demoter, so it needs no locking; the pipeline's final
// wgRead.Wait() establishes happens-before for the demotions it records.
type demoter struct {
	plan    Plan
	in      []input
	open    func(shard int, from, to int64) (io.Reader, error)
	k, unit int
	verify  UnitVerifier
	alive   int
	demoted []ecerr.Demotion
}

func newDemoter(c Codec, s Shards, verify UnitVerifier) (*demoter, error) {
	k, unit := c.K(), c.UnitSize()
	d := &demoter{plan: s.Plan, in: make([]input, k+c.R()), open: s.Open, k: k, unit: unit, verify: verify}
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

// fillSlot reads the units the plan names for one stripe into the slot,
// verifying each as it lands and demoting shards that fail instead of
// failing the stream; a demotion widens the plan, and the stripe is
// rescanned for the units that adds. s.work[i] is left nil for a unit
// that was not read — lost, demoted, or simply not planned. It reports
// whether the stripe needs reconstruction (a data unit the window wants
// is missing); err is non-nil only when demotions leave fewer than k
// usable shards.
func (d *demoter) fillSlot(s *slot, stripe int64, stall *time.Duration) (rebuild bool, err error) {
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
	for i := 0; i < d.k; i++ {
		if in := &d.in[i]; s.work[i] == nil && in.needFrom <= stripe && stripe < in.needTo {
			return true, nil
		}
	}
	return false, nil
}

// emit writes the window's share of one decoded stripe to dst: the data
// units from the window's first byte in this stripe to its last. Every
// unit it touches was read or reconstructed (fillSlot's rebuild rule).
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

func decodeSerial(c Codec, d *demoter, dst io.Writer, cfg Config, st *Stats) error {
	k, r, unit := c.K(), c.R(), c.UnitSize()
	defer func() { st.Demoted = d.demoted }()
	if d.plan.Len == 0 {
		return nil
	}
	buf, err := cfg.Pool.Get()
	if err != nil {
		return err
	}
	defer cfg.Pool.Put(buf) //nolint:errcheck // geometry matches by construction
	s := &slot{buf: buf, work: make([][]byte, k+r)}

	for stripe := d.plan.Base; stripe < d.plan.End; stripe++ {
		if cfg.Ctx.Err() != nil {
			return ctxErr(cfg.Ctx)
		}
		rebuild, err := d.fillSlot(s, stripe, &st.ReadStall)
		if err != nil {
			return err
		}
		if rebuild {
			t0 := time.Now()
			if err := c.ReconstructData(s.work); err != nil {
				return err
			}
			st.EncodeStall += time.Since(t0)
		}
		t1 := time.Now()
		n, werr := d.plan.emit(dst, s.work, stripe, k, unit)
		st.WriteStall += time.Since(t1)
		if werr != nil {
			return werr
		}
		st.Stripes++
		st.BytesOut += n
	}
	st.BytesIn = st.BytesOut
	return nil
}

func decodePipelined(c Codec, d *demoter, dst io.Writer, cfg Config, st *Stats) error {
	k, unit := c.K(), c.UnitSize()
	slots, release, err := ring(c, cfg)
	if err != nil {
		return err
	}
	defer release()

	free := make(chan *slot, cfg.Depth)
	results := make(chan *slot, cfg.Depth)
	f := newFailer()
	// One reconstruction task per ring slot, built before traffic (see the
	// encode path): steady-state stripes submit a prebuilt closure.
	for _, s := range slots {
		s := s
		s.run = func() {
			if f.failed() {
				return
			}
			if s.rebuild {
				if err := c.ReconstructData(s.work); err != nil {
					f.fail(err)
					return
				}
			}
			results <- s
		}
		free <- s
	}
	// Cancellation latches into the failure broadcast exactly as a stage
	// error would; the ring drains and Decode returns ctxErr.
	stop := context.AfterFunc(cfg.Ctx, func() { f.fail(ctxErr(cfg.Ctx)) })
	defer stop()

	// Reconstruction stage: one stream queue on the scheduler. Only
	// stripes with missing data units pay the kernel; surviving-stripe
	// tasks pass straight through to the in-order writer.
	q := cfg.Sched.NewQueue()
	defer q.Close()

	// Reader: gathers the planned units of each stripe (sequential: shard
	// readers are streams and must be consumed in stripe order). It owns
	// the demoter — verification happens here, as units enter the ring, so
	// a shard that fails its checksum mid-stream is erased for this and all
	// later stripes while earlier (verified) stripes stand.
	var readStall time.Duration
	var wgRead sync.WaitGroup
	wgRead.Add(1)
	go func() {
		defer wgRead.Done()
		defer close(results)
		defer q.Wait() // every submitted task finishes before results closes
		pprof.SetGoroutineLabels(readLabelCtx)
		for stripe := d.plan.Base; stripe < d.plan.End; stripe++ {
			var s *slot
			select {
			case s = <-free:
			case <-f.done:
				return
			}
			rebuild, err := d.fillSlot(s, stripe, &readStall)
			if err != nil {
				f.fail(err)
				return
			}
			s.seq, s.rebuild = stripe, rebuild
			q.Submit(s.run)
		}
	}()

	// In-order writer.
	pending := make(map[int64]*slot, cfg.Depth)
	next := d.plan.Base
	for {
		t0 := time.Now()
		s, ok := <-results
		st.EncodeStall += time.Since(t0)
		if !ok {
			break
		}
		pending[s.seq] = s
		for {
			ss, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if !f.failed() {
				t1 := time.Now()
				n, werr := d.plan.emit(dst, ss.work, ss.seq, k, unit)
				st.WriteStall += time.Since(t1)
				if werr != nil {
					f.fail(werr)
				} else {
					st.Stripes++
					st.BytesOut += n
				}
			}
			free <- ss
		}
	}
	wgRead.Wait()
	st.ReadStall = readStall
	st.Demoted = d.demoted
	st.BytesIn = st.BytesOut
	return f.err
}
