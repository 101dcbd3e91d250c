// Package tuned closes the serving loop the paper leaves open: the
// autotuner in internal/autotune can find a near-optimal schedule for any
// stripe geometry, but until now it only ran at construction time (or in
// the offline bench harness) — the daemon served every request off
// whatever the tuning cache held at boot. This package makes the server
// tune its own hot geometries while it runs:
//
//   - Registry is the shared code source: one compiled *gemmec.Code and
//     one stripe-buffer pool per (k, r, unitSize) geometry, handed to
//     every request through shardfile.Opts.Source. Sharing the code is
//     what makes hot-swapping meaningful (a per-request code would die
//     with the request) and sharing the pool is what makes steady-state
//     requests allocation-free. The registry also counts requests per
//     geometry — the live-traffic signal the tuner keys on.
//
//   - Tuner is the background loop: on a throttled tick it checks the
//     scheduler's idle window (Config.IdleFor), picks the hottest
//     geometry whose traffic has outgrown its last tune, runs a bounded
//     serial-only autotune search (gemmec.Code.Retune) and hot-swaps the
//     compiled executor into the live path. Learned schedules persist to
//     Config.TuneCache on every swap and again on Stop, so the next boot
//     starts from them.
//
// The loop never runs trials while traffic is in flight (idle gating) and
// never blocks a request (the swap is one atomic pointer store inside
// core.Engine).
package tuned

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gemmec"
	"gemmec/internal/obs"
)

// Config parameterizes the registry and its background tuner.
type Config struct {
	// TuneCache, when non-empty, is the JSON tuning-cache file: loaded when
	// a geometry's code is first built, rewritten after every retune and on
	// Stop.
	TuneCache string
	// DecoderCache bounds each code's compiled-decoder LRU (0 = library
	// default of 16).
	DecoderCache int
	// Trials is the schedule-search budget per retune (<= 0 disables the
	// background tuner; the registry still shares codes and pools).
	Trials int
	// MinIdle is how long the scheduler must have been idle before a
	// retune may start. 0 selects 100ms.
	MinIdle time.Duration
	// Interval is the tuner's poll cadence. 0 selects 1s.
	Interval time.Duration
	// IdleFor reports how long the serving scheduler has been idle (0 =
	// busy right now). Nil means "always idle" — only sensible in tests.
	IdleFor func() time.Duration
	// Logf, when non-nil, receives one line per retune and per error.
	Logf func(format string, args ...any)
}

// geometry keys the registry: one code per stripe shape.
type geometry struct {
	k, r, unit int
}

// entry is one geometry's shared state plus its traffic and tuning
// telemetry.
type entry struct {
	geo  geometry
	code *gemmec.Code
	pool *gemmec.StripePool

	requests  atomic.Int64  // StreamCode hits (PUT + GET + scrub)
	tunedAt   atomic.Int64  // requests count when last retuned; -1 = never
	swaps     atomic.Int64  // retunes that changed the schedule
	predicted atomic.Uint64 // float64 bits, GB/s of the best trial
	measured  atomic.Uint64 // float64 bits, GB/s re-measured post-swap

	reqCounter *obs.Counter // non-nil once AttachObs ran
}

// Registry builds and shares per-geometry codes and stripe pools. It
// implements shardfile.CodeSource; the server passes it via
// shardfile.Opts.Source so every PUT/GET runs on the shared (and
// hot-swappable) engine instead of compiling its own.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	entries map[geometry]*entry
	order   []*entry // stable iteration order for snapshots

	obsReg *obs.Registry
}

// NewRegistry returns an empty registry. Codes are built lazily on first
// use of each geometry.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg, entries: map[geometry]*entry{}}
}

// entryFor returns (building if needed) the geometry's entry.
func (r *Registry) entryFor(k, rr, unit int) (*entry, error) {
	geo := geometry{k: k, r: rr, unit: unit}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[geo]; ok {
		return e, nil
	}
	opts := []gemmec.Option{gemmec.WithUnitSize(unit)}
	if r.cfg.DecoderCache > 0 {
		opts = append(opts, gemmec.WithDecoderCache(r.cfg.DecoderCache))
	}
	if r.cfg.TuneCache != "" {
		opts = append(opts, gemmec.WithTuningCache(r.cfg.TuneCache))
	}
	code, err := gemmec.New(k, rr, opts...)
	if err != nil {
		return nil, err
	}
	pool, err := code.NewStreamPool()
	if err != nil {
		return nil, err
	}
	e := &entry{geo: geo, code: code, pool: pool}
	e.tunedAt.Store(-1)
	if r.obsReg != nil {
		r.attachShape(e)
	}
	r.entries[geo] = e
	r.order = append(r.order, e)
	return e, nil
}

// StreamCode returns the shared code for the geometry and counts the
// request — the traffic signal the tuner ranks shapes by.
func (r *Registry) StreamCode(k, rr, unit int) (*gemmec.Code, error) {
	e, err := r.entryFor(k, rr, unit)
	if err != nil {
		return nil, err
	}
	e.requests.Add(1)
	if c := e.reqCounter; c != nil {
		c.Inc()
	}
	return e.code, nil
}

// StreamPool returns the shared stripe-buffer pool for the geometry.
func (r *Registry) StreamPool(k, rr, unit int) (*gemmec.StripePool, error) {
	e, err := r.entryFor(k, rr, unit)
	if err != nil {
		return nil, err
	}
	return e.pool, nil
}

// Code returns the shared code for a geometry without counting a request —
// for callers (metrics, benches, the store's own handle) that observe
// rather than serve.
func (r *Registry) Code(k, rr, unit int) (*gemmec.Code, error) {
	e, err := r.entryFor(k, rr, unit)
	if err != nil {
		return nil, err
	}
	return e.code, nil
}

// AttachObs registers the per-shape hot-shape table on reg — request
// counters plus scrape-time gauges for executor generation and
// predicted/measured throughput, one labeled series per geometry, for
// current and future geometries. Requests counted before attachment are
// folded into the counter.
func (r *Registry) AttachObs(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obsReg = reg
	for _, e := range r.order {
		if e.reqCounter == nil {
			r.attachShape(e)
			e.reqCounter.Add(e.requests.Load())
		}
	}
}

// attachShape builds e's labeled per-shape series; caller holds r.mu and
// has set r.obsReg.
func (r *Registry) attachShape(e *entry) {
	labels := []obs.Label{
		obs.L("k", fmt.Sprint(e.geo.k)), obs.L("r", fmt.Sprint(e.geo.r)), obs.L("unit", fmt.Sprint(e.geo.unit)),
	}
	e.reqCounter = r.obsReg.Counter("gemmec_tuner_shape_requests_total",
		"Streaming requests observed per stripe geometry (the tuner's hot-shape table).", labels...)
	r.obsReg.GaugeFunc("gemmec_tuner_shape_generation",
		"Executor generation per geometry (retunes installed into the live path).",
		func() float64 { return float64(e.code.Generation()) }, labels...)
	r.obsReg.GaugeFunc("gemmec_tuner_shape_predicted_gbps",
		"Best-trial throughput the tuner predicted for the geometry, GB/s (0 until first retune).",
		func() float64 { return math.Float64frombits(e.predicted.Load()) }, labels...)
	r.obsReg.GaugeFunc("gemmec_tuner_shape_measured_gbps",
		"Throughput re-measured on the live executor after the last swap, GB/s (0 until first retune).",
		func() float64 { return math.Float64frombits(e.measured.Load()) }, labels...)
}

// snapshot returns the entries in creation order.
func (r *Registry) snapshot() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*entry(nil), r.order...)
}

// SaveTuning persists every geometry's learned schedule to the tuning
// cache (a no-op without one). Stop calls it; exposed for callers that
// shut the registry down without a tuner.
func (r *Registry) SaveTuning() error {
	var first error
	for _, e := range r.snapshot() {
		if err := e.code.SaveTuning(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShapeStats is one geometry's row in the hot-shape table.
type ShapeStats struct {
	K, R, UnitSize int
	// Requests is how many streaming requests used the geometry.
	Requests int64
	// Generation is the code's executor generation (retunes installed).
	Generation int64
	// Swaps is how many retunes changed the schedule.
	Swaps int64
	// PredictedGBps / MeasuredGBps compare the tuner's best trial against
	// the live executor's post-swap measurement; both 0 before the first
	// retune.
	PredictedGBps float64
	MeasuredGBps  float64
}

// Shapes returns the hot-shape table, busiest geometry first.
func (r *Registry) Shapes() []ShapeStats {
	entries := r.snapshot()
	out := make([]ShapeStats, 0, len(entries))
	for _, e := range entries {
		out = append(out, ShapeStats{
			K: e.geo.k, R: e.geo.r, UnitSize: e.geo.unit,
			Requests:      e.requests.Load(),
			Generation:    e.code.Generation(),
			Swaps:         e.swaps.Load(),
			PredictedGBps: math.Float64frombits(e.predicted.Load()),
			MeasuredGBps:  math.Float64frombits(e.measured.Load()),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Requests > out[j].Requests })
	return out
}

// Stats is the tuner's cumulative telemetry plus the hot-shape table —
// what /metricsz exports as the gemmec_tuner_* families.
type Stats struct {
	// Runs is completed retunes (searches that ran to completion).
	Runs int64
	// Generations is executor installs summed over all geometries.
	Generations int64
	// Swaps is retunes whose winning schedule differed from the live one.
	Swaps int64
	// Trials is schedule points measured across all retunes.
	Trials int64
	// SkippedBusy is ticks that found the scheduler busy and stood down.
	SkippedBusy int64
	// Shapes is the per-geometry table, busiest first.
	Shapes []ShapeStats
}

// Tuner is the background tune-measure-swap loop over a Registry.
type Tuner struct {
	reg *Registry
	cfg Config

	runs    atomic.Int64
	swaps   atomic.Int64
	trials  atomic.Int64
	skipped atomic.Int64

	stopc    chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartTuner launches the background loop over reg's geometries using
// reg's config. Stop must be called on shutdown (it also persists the
// learned cache). Returns nil when the config disables tuning
// (Trials <= 0).
func StartTuner(reg *Registry) *Tuner {
	if reg.cfg.Trials <= 0 {
		return nil
	}
	t := &Tuner{
		reg:   reg,
		cfg:   reg.cfg,
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	if t.cfg.MinIdle <= 0 {
		t.cfg.MinIdle = 100 * time.Millisecond
	}
	if t.cfg.Interval <= 0 {
		t.cfg.Interval = time.Second
	}
	go t.loop()
	return t
}

// Stop halts the loop, waits for any in-flight retune to finish, and
// persists every learned schedule to the tuning cache. Idempotent.
func (t *Tuner) Stop() {
	t.stopOnce.Do(func() {
		close(t.stopc)
		<-t.done
		if err := t.reg.SaveTuning(); err != nil && t.cfg.Logf != nil {
			t.cfg.Logf("tuned: save tuning cache: %v", err)
		}
	})
}

// Stats snapshots the tuner's counters and the registry's shape table.
func (t *Tuner) Stats() Stats {
	return Stats{
		Runs:        t.runs.Load(),
		Generations: t.generations(),
		Swaps:       t.swaps.Load(),
		Trials:      t.trials.Load(),
		SkippedBusy: t.skipped.Load(),
		Shapes:      t.reg.Shapes(),
	}
}

// Runs returns completed retunes.
func (t *Tuner) Runs() int64 { return t.runs.Load() }

// Swaps returns retunes whose winning schedule differed from the live one.
func (t *Tuner) Swaps() int64 { return t.swaps.Load() }

// Trials returns schedule points measured across all retunes.
func (t *Tuner) Trials() int64 { return t.trials.Load() }

// SkippedBusy returns ticks that found the scheduler busy and stood down.
func (t *Tuner) SkippedBusy() int64 { return t.skipped.Load() }

// Generations returns executor installs summed over all geometries.
func (t *Tuner) Generations() int64 { return t.generations() }

func (t *Tuner) generations() int64 {
	var total int64
	for _, e := range t.reg.snapshot() {
		total += e.code.Generation()
	}
	return total
}

func (t *Tuner) loop() {
	defer close(t.done)
	ticker := time.NewTicker(t.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stopc:
			return
		case <-ticker.C:
		}
		if t.cfg.IdleFor != nil && t.cfg.IdleFor() < t.cfg.MinIdle {
			t.skipped.Add(1)
			continue
		}
		e := t.next()
		if e == nil {
			continue
		}
		t.tune(e)
	}
}

// next picks the hottest geometry due for a (re)tune: never tuned and has
// seen traffic, or traffic since the last tune has at least doubled (plus
// a floor of 16 requests, so a trickle does not retune forever).
func (t *Tuner) next() *entry {
	var best *entry
	var bestReq int64
	for _, e := range t.reg.snapshot() {
		req := e.requests.Load()
		if req == 0 {
			continue
		}
		at := e.tunedAt.Load()
		due := at < 0 || req >= 2*at+16
		if due && (best == nil || req > bestReq) {
			best, bestReq = e, req
		}
	}
	return best
}

// tune runs one bounded retune for the entry and records its telemetry.
// Each retune searches outward from the live schedule, so repeated tunes
// of one shape climb from where the last one left off.
func (t *Tuner) tune(e *entry) {
	// Labeled with the geometry so a CPU profile during a retune shows
	// which shape's search burned the time.
	pprof.Do(context.Background(),
		pprof.Labels("op", "retune", "geometry", fmt.Sprintf("k%d_r%d_u%d", e.geo.k, e.geo.r, e.geo.unit)),
		func(context.Context) { t.tuneLabeled(e) })
}

func (t *Tuner) tuneLabeled(e *entry) {
	rep, err := e.code.Retune(t.cfg.Trials)
	t.trials.Add(int64(rep.Trials))
	if err != nil {
		if t.cfg.Logf != nil {
			t.cfg.Logf("tuned: retune k=%d r=%d unit=%d: %v", e.geo.k, e.geo.r, e.geo.unit, err)
		}
		// Still mark it tuned at the current traffic level so a shape that
		// cannot tune does not starve the others.
		e.tunedAt.Store(e.requests.Load())
		return
	}
	t.runs.Add(1)
	if rep.Swapped {
		t.swaps.Add(1)
		e.swaps.Add(1)
	}
	e.predicted.Store(math.Float64bits(rep.PredictedGBps))
	e.measured.Store(math.Float64bits(rep.MeasuredGBps))
	e.tunedAt.Store(e.requests.Load())
	if t.cfg.Logf != nil {
		t.cfg.Logf("tuned: k=%d r=%d unit=%d gen=%d trials=%d swapped=%v predicted=%.2fGB/s measured=%.2fGB/s",
			e.geo.k, e.geo.r, e.geo.unit, rep.Generation, rep.Trials, rep.Swapped,
			rep.PredictedGBps, rep.MeasuredGBps)
	}
}
