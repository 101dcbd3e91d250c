package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gemmec/internal/server"
)

// profile sizes a run. full is what BENCHMARK.json gates; smoke is the
// seconds-long shape the tests drive through the same code.
type profile struct {
	largeObject, smallObject int   // bytes
	largeKeys, smallKeys     int   // node_large / node_small key counts
	smallPutKeys             int   // node_small: the hot subset its PUT phase overwrites
	clusterKeys              int   // cluster_large keys
	degradedKeys             int   // node_degraded_partial: prepopulated before the wipe
	healthyKeys              int   // node_degraded_partial: written after the wipe
	window, smallWindow      int64 // range-GET tail and PATCH length, large / small objects
	slabThreshold            int64
	rounds, setups           int
	warmup                   time.Duration
	// Fixed per-op-type request counts of the traced run, so its counts
	// repeat exactly.
	tracedLarge, tracedSmall, tracedCluster int
	ladderPayload                           int
}

var fullProfile = profile{
	largeObject: 8 << 20, smallObject: 4 << 10,
	largeKeys: 16, smallKeys: 4096, smallPutKeys: 256, clusterKeys: 8, degradedKeys: 16, healthyKeys: 8,
	window: 64 << 10, smallWindow: 1 << 10, slabThreshold: 64 << 10,
	rounds: 5, setups: 9, warmup: 2 * time.Second,
	tracedLarge: 32, tracedSmall: 512, tracedCluster: 16,
	ladderPayload: 8 << 20,
}

var smokeProfile = profile{
	largeObject: 1 << 20, smallObject: 4 << 10,
	largeKeys: 4, smallKeys: 64, smallPutKeys: 16, clusterKeys: 2, degradedKeys: 6, healthyKeys: 2,
	window: 64 << 10, smallWindow: 1 << 10, slabThreshold: 64 << 10,
	rounds: 1, setups: 1, warmup: 50 * time.Millisecond,
	tracedLarge: 3, tracedSmall: 8, tracedCluster: 2,
	ladderPayload: 1 << 20,
}

// workloadSpec names one traffic mix and why it exists. Every workload has
// the same three phases — a write, a read and a tail range read — so every
// end-to-end metric is defined on every workload; what the phases hit
// differs.
type workloadSpec struct {
	name, why string
	cluster   bool
	small     bool // 4 KiB objects, slab packing on, two clients
	degraded  bool // one node directory wiped: the read phase reconstructs, and a PATCH phase is added
	clients   int
}

var workloads = []workloadSpec{
	{name: "node_large", clients: 1,
		why: "8 MiB objects on one node: bytes dominate, so kernel, pipeline and shard-file work (SHA-256, CRC32C, 6 files) set PUT and GET; the PUT-at-a-third-of-GET gap must show here"},
	{name: "node_small", small: true, clients: 2,
		why: "4 KiB objects, slab packing on: the kernel does almost nothing; HTTP framing, metadata JSON, locks, file creates and the slab group commit set latency, so a kernel change must not move it"},
	{name: "node_degraded_partial", degraded: true, clients: 1,
		why: "same layers used differently: every GET reconstructs a wiped data shard, range GET seeks to the tail stripe, PUT lands on a store missing a directory; a streaming gain that costs decode or range shows"},
	{name: "cluster_large", cluster: true, clients: 1,
		why: "8 MiB objects through a gateway over six networked peers: node_large's bytes and kernel, but time goes to the peer wire, fsync and the metadata majority; a kernel change must barely move it"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// populateGroup is how many small objects set-up packs into one slab:
// 128 x 4 KiB fills exactly one stripe.
const populateGroup = 128

// phase is one op type of a workload, run for a fixed share of each round.
type phase struct {
	metric string // end-to-end metric prefix: put, get, range_get
	op     opKind
	share  int // of the round's time
	objs   []*object
	window int64
	next   atomic.Uint64 // rotates over objs; shared by the workload's clients

	lat      []time.Duration // every measured sample, all rounds
	cycleMB  []float64       // per request, all rounds: see cycleRates
	roundP50 []float64       // per measured round
}

// completion is one finished request: when it ended and what it moved.
type completion struct {
	end   time.Time
	bytes int64
}

// cycleRates turns one client's completions, in order, into the rate each
// request ran at: its payload bytes over its cycle — the time since the
// client's previous completion (the phase's start for the first), so the
// client's own work between requests is inside — times the number of
// clients running beside it. The cycles of a client tile its phase.
//
// A phase's throughput is the median of these, not bytes over the phase's
// wall time. On this sandbox between one request in twenty and one in five
// stalls for several times its usual latency (first touch of memory the
// hypervisor took back while it lay free; most of it in the half second
// after a phase switch), and how many do differs from hour to hour by more
// than any bound: the mean follows the stalls, the median cycle is the
// rate the closed loop sustains between them. The stalls are in the tail
// latencies printed beside it.
func cycleRates(start time.Time, done []completion, clients int) []float64 {
	rates := make([]float64, len(done))
	for i, c := range done {
		rates[i] = float64(clients) * mbps(c.bytes, c.end.Sub(start))
		start = c.end
	}
	return rates
}

// runner drives one workload against one stack.
type runner struct {
	spec    *workloadSpec
	prof    *profile
	seed    int64
	scratch string
	rec     *recorder // nil = untraced

	st        *stack
	transport *http.Transport
	clients   []*client
	rngs      []*rand.Rand // per client: PATCH offsets
	pool      [][]byte     // payload versions, shared by every object
	patchPool [][]byte
	phases    []*phase
	all       []*object // every live object, for space accounting

	setupS    []float64
	roundCPU  []float64 // CPU seconds per GB, per measured round
	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	firstErrs []string
	spaceAmp  float64
}

func newRunner(spec *workloadSpec, prof *profile, seed int64, scratch string, rec *recorder) *runner {
	return &runner{spec: spec, prof: prof, seed: seed, scratch: scratch, rec: rec}
}

func (r *runner) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.firstErrs) < 5 {
		r.firstErrs = append(r.firstErrs, err.Error())
	}
	r.errMu.Unlock()
}

func (r *runner) objectSize() int {
	if r.spec.small {
		return r.prof.smallObject
	}
	return r.prof.largeObject
}

func (r *runner) newObjects(prefix string, n int) []*object {
	objs := make([]*object, n)
	for i := range objs {
		o := &object{name: fmt.Sprintf("%s-%05d", prefix, i), index: uint64(len(r.all))}
		o.setVersion(r.pool, 0)
		objs[i] = o
		r.all = append(r.all, o)
	}
	return objs
}

// populate stores objs through backend directly, in groups of conc that
// start together and are waited for together: set-up is not the measured
// path, it only has to leave the same state every time. Large objects go
// one at a time (two at once keep both of this box's processors busy, and
// set-up time then follows every slowing of the host half again as much);
// small ones go a slab's worth together, because a slab commits when full.
func populate(backend server.Backend, objs []*object, conc int) error {
	for len(objs) > 0 {
		group := objs[:min(conc, len(objs))]
		objs = objs[len(group):]
		errs := make([]error, len(group))
		var wg sync.WaitGroup
		for i, o := range group {
			wg.Add(1)
			go func(i int, o *object) {
				defer wg.Done()
				_, _, errs[i] = backend.Put(context.Background(), o.name, o.reader(), o.size())
			}(i, o)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("populate %s: %w", group[i].name, err)
			}
		}
	}
	return nil
}

// setup opens the stack and brings it to the workload's starting state,
// prof.setups times over, each on a fresh root; the last one is kept. Each
// set-up is timed from opening the store to the last prepopulated byte.
func (r *runner) setup() error {
	versions := 4
	r.pool = make([][]byte, versions)
	for v := range r.pool {
		r.pool[v] = seededBytes(r.seed, v, r.objectSize())
	}
	for i := 0; i < r.prof.setups; i++ {
		if r.st != nil {
			r.teardown()
		}
		root, err := freshRoot(r.scratch, r.spec.name+"-")
		if err != nil {
			return err
		}
		start := time.Now()
		if err := r.setupOnce(root); err != nil {
			return err
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}
	// Space is accounted here, with exactly the working set on disk: the
	// one state every run reaches identically. What a run leaves behind
	// beyond it is the scrub gate's business (finish).
	var live int64
	for _, o := range r.all {
		live += o.size()
	}
	disk, err := diskBytes(r.st.root)
	if err != nil {
		return err
	}
	r.spaceAmp = float64(disk) / float64(live)
	r.transport = newTransport(r.spec.clients)
	for c := 0; c < r.spec.clients; c++ {
		r.clients = append(r.clients, newClient(r.transport, r.st.url, r.rec))
		r.rngs = append(r.rngs, rand.New(rand.NewSource(r.seed*7919+int64(c))))
	}
	if r.rec != nil {
		r.rec.queueDepth = r.st.backend.Scheduler().QueueDepth
	}
	return nil
}

func (r *runner) setupOnce(root string) error {
	var err error
	r.all, r.phases = nil, nil
	window := r.prof.window
	var writeObjs, readObjs, rangeObjs []*object
	switch {
	case r.spec.cluster:
		if r.st, err = openClusterStack(root, r.rec); err != nil {
			return err
		}
		writeObjs = r.newObjects("cluster", r.prof.clusterKeys)
		readObjs = writeObjs
		err = populate(r.st.backend, writeObjs, 1)
	case r.spec.small:
		window = r.prof.smallWindow
		readObjs = r.newObjects("small", r.prof.smallKeys)
		writeObjs = readObjs[:r.prof.smallPutKeys]
		if err = populateSlabs(root, r.prof.slabThreshold, readObjs); err != nil {
			return err
		}
		r.st, err = openNodeStack(root, r.prof.slabThreshold, r.rec)
	case r.spec.degraded:
		if r.st, err = openNodeStack(root, 0, r.rec); err != nil {
			return err
		}
		readObjs, writeObjs, err = r.setupDegraded()
		rangeObjs = writeObjs
	default:
		if r.st, err = openNodeStack(root, 0, r.rec); err != nil {
			return err
		}
		writeObjs = r.newObjects("large", r.prof.largeKeys)
		readObjs = writeObjs
		err = populate(r.st.backend, writeObjs, 1)
	}
	if err != nil {
		return err
	}
	if rangeObjs == nil {
		rangeObjs = readObjs
	}
	// Reads and writes get two shares of a round each, the cheap tail
	// range read one.
	r.phases = []*phase{
		{metric: "put", op: opPut, share: 2, objs: writeObjs},
		{metric: "get", op: opGet, share: 2, objs: readObjs},
		{metric: "range_get", op: opRangeGet, share: 1, objs: rangeObjs, window: window},
	}
	if r.spec.degraded {
		// Reported only: see the note on endToEndMetrics.
		r.phases = append(r.phases, &phase{metric: "patch", op: opPatch, share: 1, objs: writeObjs})
	}
	return nil
}

// populateSlabs stores the small objects on root through a store of its
// own, closed again before the measured daemon opens the same root. With
// the daemon's 2 ms slab window, how many objects share a slab — and so
// the bytes on disk — is scheduling luck. This store's window is long and
// its slab fills at exactly populateGroup objects, so every group of
// populateGroup concurrent PUTs is one group commit and one full stripe.
func populateSlabs(root string, slabThreshold int64, objs []*object) error {
	group := min(populateGroup, len(objs))
	st, err := server.Open(server.StoreConfig{
		Root: root, Nodes: nodeDirs, K: codeK, R: codeR, UnitSize: unitSize,
		SlabThreshold: slabThreshold,
		SlabWindow:    50 * time.Millisecond,
		SlabMaxBytes:  int64(group) * objs[0].size(),
	})
	if err != nil {
		return err
	}
	defer st.Close()
	return populate(st, objs, group)
}

// setupDegraded prepopulates, wipes node directory 0, and keeps for the
// read phase the objects whose lost shard is a data shard (looked up
// through Store.Stat's placement), so every stripe of every GET
// reconstructs. With six node directories and k+r = 6 every object stored
// before the wipe lost a shard, so the healthy set the range and PATCH
// phases use is written after it.
func (r *runner) setupDegraded() (degraded, healthy []*object, err error) {
	before := r.newObjects("degraded", r.prof.degradedKeys)
	if err := populate(r.st.backend, before, 1); err != nil {
		return nil, nil, err
	}
	const wiped = 0
	if err := os.RemoveAll(filepath.Join(r.st.root, fmt.Sprintf("node_%03d", wiped))); err != nil {
		return nil, nil, err
	}
	for _, o := range before {
		meta, err := r.st.store.Stat(o.name)
		if err != nil {
			return nil, nil, err
		}
		for shard, node := range meta.Placement {
			if node == wiped && shard < codeK {
				degraded = append(degraded, o)
			}
		}
	}
	if len(degraded) == 0 {
		return nil, nil, fmt.Errorf("no object lost a data shard to node %d", wiped)
	}
	healthy = r.newObjects("healthy", r.prof.healthyKeys)
	if err := populate(r.st.backend, healthy, 1); err != nil {
		return nil, nil, err
	}
	r.patchPool = make([][]byte, 4)
	for i := range r.patchPool {
		r.patchPool[i] = seededBytes(r.seed, 100+i, int(r.prof.window))
	}
	return degraded, healthy, nil
}

func (r *runner) teardown() {
	if r.transport != nil {
		r.transport.CloseIdleConnections()
		r.transport = nil
	}
	if r.st != nil {
		r.st.close()
		os.RemoveAll(r.st.root)
		r.st = nil
	}
	r.clients, r.rngs = nil, nil
}

// one issues the phase's next request on client c and returns its latency
// and the payload bytes moved; failures are counted, not returned.
func (r *runner) one(p *phase, c int) (time.Duration, int64) {
	obj := p.objs[(p.next.Add(1)-1)%uint64(len(p.objs))]
	var (
		patchOff  int64
		patchData []byte
	)
	switch p.op {
	case opPut:
		obj.setVersion(r.pool, obj.version+1)
	case opPatch:
		// A stripe-interior window: off the unit grid but inside one data
		// unit, so every PATCH touches one data unit and the r parity
		// units. (Windows that straddle two units cost more, and a median
		// over a mix of the two kinds jumps with the mix.)
		rng := r.rngs[c]
		units := obj.size() / unitSize
		patchData = r.patchPool[rng.Intn(len(r.patchPool))]
		patchOff = rng.Int63n(units)*unitSize + 1 + rng.Int63n(unitSize-int64(len(patchData))-1)
	}
	r.attempted.Add(1)
	if r.rec != nil {
		raise(&r.rec.goroutinePeak, int64(runtime.NumGoroutine()))
	}
	start := time.Now()
	n, err := r.clients[c].do(p.op, obj, p.window, patchOff, patchData)
	d := time.Since(start)
	if err != nil {
		r.fail(err)
		return d, 0
	}
	if p.op == opPatch {
		obj.patch(patchOff, patchData)
	}
	return d, n
}

// runPhase runs p closed-loop on every client. With count > 0 it issues
// exactly count requests (traced run); otherwise it runs until d has
// passed. record appends the phase's samples and round values.
func (r *runner) runPhase(p *phase, d time.Duration, count int, record bool) (bytes int64) {
	var (
		wg     sync.WaitGroup
		issued atomic.Int64
		moved  atomic.Int64
		lats   = make([][]time.Duration, len(r.clients))
		dones  = make([][]completion, len(r.clients))
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := range r.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if count > 0 {
					if issued.Add(1) > int64(count) {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				lat, n := r.one(p, c)
				lats[c] = append(lats[c], lat)
				dones[c] = append(dones[c], completion{time.Now(), n})
				moved.Add(n)
			}
		}(c)
	}
	wg.Wait()
	if !record {
		return moved.Load()
	}
	var round []time.Duration
	for c := range lats {
		round = append(round, lats[c]...)
		p.cycleMB = append(p.cycleMB, cycleRates(start, dones[c], len(r.clients))...)
	}
	sortDurations(round)
	p.lat = append(p.lat, round...)
	p.roundP50 = append(p.roundP50, ms(percentile(round, 50)))
	return moved.Load()
}

// slice is phase p's share of d.
func (r *runner) slice(d time.Duration, p *phase) time.Duration {
	shares := 0
	for _, q := range r.phases {
		shares += q.share
	}
	return d * time.Duration(p.share) / time.Duration(shares)
}

// warm runs every phase unrecorded so connections, caches, the decoder
// LRU and lazily built state are in place before the first timed round.
func (r *runner) warm() {
	for _, p := range r.phases {
		r.runPhase(p, r.slice(r.prof.warmup, p), 0, false)
	}
	r.reclaim()
}

// round runs each phase for its share of d and records one value per
// phase plus the round's CPU cost.
func (r *runner) round(d time.Duration) {
	cpu0 := cpuSeconds()
	var moved int64
	for _, p := range r.phases {
		moved += r.runPhase(p, r.slice(d, p), 0, true)
	}
	if moved > 0 {
		r.roundCPU = append(r.roundCPU, (cpuSeconds()-cpu0)/(float64(moved)/1e9))
	}
	r.reclaim()
}

// reclaim runs one untimed scrub sweep on the slab-packing workload. A
// slab's bytes leave the disk only when a sweep finds every member
// overwritten; the daemon's background scrubber is off here (its timer
// would be noise), so without this stand-in the PUT phase would grow the
// store — and the page cache — without bound, and on this sandbox a
// growing page cache is several times slower than a recycled one.
func (r *runner) reclaim() {
	if !r.spec.small {
		return
	}
	if rep := r.st.backend.ScrubAll(context.Background()); !rep.Clean() {
		r.fail(fmt.Errorf("reclaim sweep: healed=%v errors=%v", rep.Healed, rep.Errors))
	}
}

// finish runs the untimed correctness checks.
func (r *runner) finish() {
	// Patched objects: full read-back against the shadow copy.
	if r.spec.degraded {
		for _, o := range r.phases[0].objs { // the healthy set: overwritten and patched
			r.attempted.Add(1)
			if _, err := r.clients[0].do(opGet, o, 0, 0, nil); err != nil {
				r.fail(fmt.Errorf("read-back after patches: %w", err))
			}
		}
	}
	// After the large-object workloads a scrub sweep must find nothing to
	// do: no shard to heal, no orphaned generation left by an overwrite.
	if !r.spec.small && !r.spec.degraded {
		r.attempted.Add(1)
		rep := r.st.backend.ScrubAll(context.Background())
		if !rep.Clean() || rep.OrphansRemoved != 0 || rep.PatchesRecovered != 0 {
			r.fail(fmt.Errorf("scrub after run not clean: healed=%v errors=%v orphans=%d",
				rep.Healed, rep.Errors, rep.OrphansRemoved))
		}
	}
}

// endToEnd assembles the workload's end-to-end metrics: a p50 and the CPU
// cost are medians over the measured rounds, a throughput the median over
// the requests of every round, set-up time the median over the set-ups.
func (r *runner) endToEnd() map[string]float64 {
	m := map[string]float64{
		"setup_s":      median(r.setupS),
		"cpu_s_per_gb": median(r.roundCPU),
		"space_amp":    r.spaceAmp,
	}
	for _, p := range r.phases {
		m[p.metric+"_p50_ms"] = median(p.roundP50)
		m[p.metric+"_mbps"] = median(p.cycleMB)
	}
	return m
}

// cpuSeconds is the process's user+system CPU time so far. The generator
// runs in this process, so its CPU is inside every cpu_s_per_gb.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
