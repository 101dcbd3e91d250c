package server

import (
	"strconv"
	"sync/atomic"
	"time"

	"gemmec"
	"gemmec/internal/core"
	"gemmec/internal/ecerr"
	"gemmec/internal/obs"
	"gemmec/internal/peer"
)

// ops is the fixed label set for per-operation request metrics. Every
// request is attributed to exactly one of these; pre-registering the full
// set keeps the per-request record path to handle lookups plus atomic adds.
var ops = []string{"put", "get", "head", "patch", "delete", "list", "scrub", "status", "health", "metrics", "other"}

// stages mirror pipeline.Stats stall attribution: where a streaming
// request's wall time went when it was not doing GEMM.
var stages = []string{"read", "encode", "write"}

// demotionCauses are the DemotionCauseClass buckets.
var demotionCauses = []string{"crc", "truncation", "stall", "io"}

// Metrics is the serving path's instrumentation bundle: every counter,
// gauge and histogram the daemon records, pre-registered against one
// obs.Registry so recording is lock-free atomic adds. A quantity /statusz
// also reports (bytes in and out, degraded and ranged gets, patches,
// scrub, slab and shed counts) has no field here: its family is a
// CounterFunc over the backend's own atomic, registered by SetMetrics, so
// the two documents read one counter. Construct with NewMetrics, hand the
// same instance to the backend (SetMetrics) and the handler
// (Config.Metrics); a nil *Metrics disables recording everywhere without
// conditional wiring at call sites.
type Metrics struct {
	Registry *obs.Registry

	reqDuration map[string]*obs.Histogram // by op, seconds
	getTTFB     *obs.Histogram
	inFlight    *obs.Gauge
	objectBytes map[string]*obs.Histogram // by op (put/get), bytes

	stall   map[[2]string]*obs.Histogram // by {op, stage}, seconds
	stripes map[string]*obs.Counter      // by op

	demotions map[string]*obs.Counter // by cause

	scrubDur  *obs.Histogram
	scrubLast *obs.Gauge // unix seconds

	slowRequests     *obs.Counter
	requestsCanceled *obs.Counter
	requestsTimeout  *obs.Counter

	schedWait *obs.Histogram

	rangeBytes *obs.Counter

	patchStripes *obs.Counter
	patchBytes   map[string]*obs.Counter // by kind (data/parity)
}

// NewMetrics registers the daemon's metric families on reg (a fresh
// registry if nil) and returns the bundle. Process-wide sources — the
// engine's decoder-cache counters, Go runtime stats — are registered here
// too, so one /metricsz scrape carries the whole story.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Metrics{
		Registry:    reg,
		reqDuration: map[string]*obs.Histogram{},
		objectBytes: map[string]*obs.Histogram{},
		stall:       map[[2]string]*obs.Histogram{},
		stripes:     map[string]*obs.Counter{},
		demotions:   map[string]*obs.Counter{},
	}
	for _, op := range ops {
		m.reqDuration[op] = reg.Histogram("gemmec_http_request_duration_seconds",
			"HTTP request latency by operation.", obs.LatencyBuckets, obs.L("op", op))
	}
	m.getTTFB = reg.Histogram("gemmec_http_get_ttfb_seconds",
		"Time from GET dispatch to the first payload byte.", obs.LatencyBuckets)
	m.inFlight = reg.Gauge("gemmec_http_requests_in_flight",
		"HTTP requests currently being served.")
	for _, op := range []string{"put", "get"} {
		m.objectBytes[op] = reg.Histogram("gemmec_object_bytes",
			"Object payload size per streaming request.", obs.SizeBuckets, obs.L("op", op))
	}
	for _, op := range []string{"put", "get"} {
		for _, st := range stages {
			m.stall[[2]string{op, st}] = reg.Histogram("gemmec_pipeline_stall_seconds",
				"Per-request pipeline stall time by stage (read/encode/write).",
				obs.LatencyBuckets, obs.L("op", op), obs.L("stage", st))
		}
		m.stripes[op] = reg.Counter("gemmec_pipeline_stripes_total",
			"Stripes encoded or decoded by the streaming pipeline.", obs.L("op", op))
	}
	for _, cause := range demotionCauses {
		m.demotions[cause] = reg.Counter("gemmec_demotions_total",
			"Mid-stream shard demotions by cause.", obs.L("cause", cause))
	}

	m.scrubDur = reg.Histogram("gemmec_scrub_cycle_duration_seconds",
		"Wall time of one whole-catalog scrub sweep.", obs.LatencyBuckets)
	m.scrubLast = reg.Gauge("gemmec_scrub_last_completed_timestamp_seconds",
		"Unix time the last scrub sweep completed (0 until the first).")

	m.slowRequests = reg.Counter("gemmec_http_slow_requests_total",
		"Requests slower than the -slow-request threshold.")
	m.requestsCanceled = reg.Counter("gemmec_http_requests_canceled_total",
		"Requests abandoned before completion (client disconnect or server drain).")
	m.requestsTimeout = reg.Counter("gemmec_http_requests_timeout_total",
		"Requests killed by the -request-timeout deadline.")

	m.schedWait = reg.Histogram("gemmec_sched_wait_seconds",
		"Time stripe tasks spent queued in the shared scheduler before a worker picked them up.",
		obs.LatencyBuckets)

	m.rangeBytes = reg.Counter("gemmec_range_bytes_total",
		"Payload bytes served by ranged GETs.")

	m.patchStripes = reg.Counter("gemmec_patch_stripes_total",
		"Stripes rewritten in place by PATCH.")
	m.patchBytes = map[string]*obs.Counter{}
	for _, kind := range []string{"data", "parity"} {
		m.patchBytes[kind] = reg.Counter("gemmec_patch_bytes_total",
			"Shard bytes written in place by PATCH, by kind (parity bytes are XOR-patched, not re-encoded).",
			obs.L("kind", kind))
	}

	reg.CounterFunc("gemmec_decoder_cache_hits_total",
		"Compiled-decoder cache hits across all engines.",
		func() float64 { return float64(core.ReadDecoderCacheCounters().Hits) })
	reg.CounterFunc("gemmec_decoder_cache_misses_total",
		"Compiled-decoder cache misses (matrix inversion + kernel compile paid).",
		func() float64 { return float64(core.ReadDecoderCacheCounters().Misses) })
	reg.CounterFunc("gemmec_decoder_cache_evictions_total",
		"Compiled decoders dropped by per-engine LRU bounds.",
		func() float64 { return float64(core.ReadDecoderCacheCounters().Evictions) })
	obs.RegisterGoRuntime(reg)
	return m
}

// load reads an atomic counter at scrape time.
func load(v *atomic.Int64) func() float64 { return func() float64 { return float64(v.Load()) } }

// register adds the scrape-time families every backend has: the front's
// /statusz counters, the object count and scheduler occupancy. Called
// once per backend, by SetMetrics.
func (m *Metrics) register(f *front) {
	if m == nil {
		return
	}
	m.Registry.CounterFunc("gemmec_bytes_in_total", "Object payload bytes accepted by PUT.", load(&f.bytesIn))
	m.Registry.CounterFunc("gemmec_bytes_out_total", "Object payload bytes served by GET.", load(&f.bytesOut))
	m.Registry.CounterFunc("gemmec_degraded_gets_total",
		"GETs that required reconstruction (at open or mid-stream).", load(&f.degradedGets))
	m.Registry.CounterFunc("gemmec_range_gets_total",
		"Ranged reads opened (a GET with a satisfiable Range, or OpenRange), whether or not the stream completed.",
		load(&f.rangeGets))
	m.Registry.CounterFunc("gemmec_patches_total",
		"PATCH requests committed (in place or via read-modify-write).", load(&f.patches))
	m.Registry.CounterFunc("gemmec_patch_fallbacks_total",
		"PATCHes that fell back to a full read-modify-write (slab members, degraded sets, cluster objects).",
		load(&f.patchFallbacks))
	m.Registry.CounterFunc("gemmec_scrub_cycles_total", "Completed scrub sweeps.", load(&f.scrubCycles))
	m.Registry.CounterFunc("gemmec_scrub_shards_healed_total",
		"Shards rebuilt in place by scrub (sweeps and single-object scrubs).", load(&f.shardsHealed))
	m.Registry.CounterFunc("gemmec_scrub_errors_total",
		"Per-object scrub failures and patch journals that failed to replay (objects still needing attention).",
		load(&f.scrubErrors))
	sc := f.sched
	m.Registry.CounterFunc("gemmec_http_requests_shed_total",
		"Requests rejected by admission control (429 + Retry-After).",
		func() float64 { return float64(sc.Shed()) })
	m.Registry.GaugeFunc("gemmec_objects", "Objects in the catalog.",
		func() float64 {
			names, _ := f.b.List()
			return float64(len(names))
		})
	m.Registry.GaugeFunc("gemmec_sched_queue_depth",
		"Stripe tasks queued in the shared scheduler right now.",
		func() float64 { return float64(sc.QueueDepth()) })
	m.Registry.GaugeFunc("gemmec_sched_admitted",
		"Streaming requests currently holding an admission slot.",
		func() float64 { return float64(sc.Admitted()) })
	m.Registry.GaugeFunc("gemmec_sched_workers",
		"Workers in the shared encode/decode pool.",
		func() float64 { return float64(sc.Workers()) })
}

// registerStore adds the families only a single node has: slab packing
// and orphan reclamation.
func (m *Metrics) registerStore(s *Store) {
	if m == nil {
		return
	}
	m.Registry.CounterFunc("gemmec_slab_puts_total",
		"PUTs served by the small-object packing fast path.", load(&s.slabPuts))
	m.Registry.CounterFunc("gemmec_slab_flushes_total",
		"Slab batches committed by the group-commit writer.", load(&s.slabFlushes))
	m.Registry.CounterFunc("gemmec_slabs_reclaimed_total",
		"Dead slabs (no live members) reclaimed by scrub.", load(&s.slabsReclaimed))
	m.Registry.CounterFunc("gemmec_scrub_orphans_removed_total",
		"Stale shard/temp files reclaimed by scrub.", load(&s.orphansRemoved))
}

// registerCluster adds the families only a cluster has: node-rebuild
// traffic (bytes read from survivors, bytes of shard rebuilt, and their
// ratio — the repair amplification, k), rebuild runs, quorum failures, and
// the per-peer transport series. Shards a scrub sweep heals are counted by
// gemmec_scrub_shards_healed_total, as on a single node.
func (m *Metrics) registerCluster(g *Gateway) {
	if m == nil {
		return
	}
	m.Registry.CounterFunc("gemmec_repair_bytes_read_total",
		"Survivor shard bytes read by node rebuilds.", load(&g.repairBytesRead))
	m.Registry.CounterFunc("gemmec_repair_bytes_written_total",
		"Rebuilt shard bytes written by node rebuilds.", load(&g.repairBytesWritten))
	m.Registry.GaugeFunc("gemmec_repair_amplification",
		"Cumulative node-rebuild traffic amplification: survivor bytes read per byte rebuilt (k).",
		g.RepairAmplification)
	m.Registry.CounterFunc("gemmec_rebuild_runs_total", "Completed RebuildNode runs.", load(&g.rebuilds))
	m.Registry.CounterFunc("gemmec_rebuild_shards_total", "Shards rebuilt by node rebuilds.", load(&g.shardsRebuilt))
	m.Registry.CounterFunc("gemmec_quorum_failures_total",
		"Writes abandoned for missing their shard-ack or metadata quorum.", load(&g.quorumFailures))

	// Peer transport observability: each HTTP peer client feeds the
	// member-labeled request counter and latency histogram plus the
	// healthy→down transition counter through its Observer hook. Local
	// (in-process) transports carry no wire and get no series.
	for id, tr := range g.cfg.Transports {
		c, ok := tr.(*peer.Client)
		if !ok {
			continue
		}
		member := strconv.Itoa(id)
		hist := m.Registry.Histogram("gemmec_peer_request_seconds",
			"Internal peer request latency by member (per HTTP attempt).",
			obs.LatencyBuckets, obs.L("member", member))
		down := m.Registry.Counter("gemmec_peer_down_total",
			"Healthy-to-down health transitions observed for the member.",
			obs.L("member", member))
		c.SetObserver(&peer.Observer{
			OnRequest: func(_ peer.Member, op string, code int, d time.Duration) {
				m.Registry.Counter("gemmec_peer_requests_total",
					"Internal peer API requests by member, operation and status (code 0: transport failure).",
					obs.L("member", member), obs.L("op", op), obs.L("code", peerCode(code))).Inc()
				hist.Observe(int64(d))
			},
			OnDown: func(peer.Member) { down.Inc() },
		})
	}
}

// peerCode renders a peer attempt's status for the code label; 0 means
// the request never got an HTTP status (dial/transport failure).
func peerCode(code int) string {
	if code == 0 {
		return "0"
	}
	return itoa3(code)
}

// ObserveSchedWait records one task's scheduler queue wait. Wired as the
// scheduler's OnWait hook; nil-safe like every recording method.
func (m *Metrics) ObserveSchedWait(d time.Duration) {
	if m == nil {
		return
	}
	m.schedWait.Observe(int64(d))
}

// opHistogram indexes a per-op histogram map, folding unknown ops into
// "other" so a recording site can never miss.
func opKey(op string) string {
	for _, o := range ops {
		if o == op {
			return op
		}
	}
	return "other"
}

// recordRequest records one finished HTTP request.
func (m *Metrics) recordRequest(op string, code int, dur time.Duration) {
	if m == nil {
		return
	}
	m.reqDuration[opKey(op)].Observe(int64(dur))
	m.Registry.Counter("gemmec_http_requests_total",
		"HTTP requests by operation and status code.",
		obs.L("op", opKey(op)), obs.L("code", itoa3(code))).Inc()
}

// itoa3 formats the common status codes without strconv (they are the only
// codes the handler emits; anything else falls through to a generic class).
func itoa3(code int) string {
	switch code {
	case 200:
		return "200"
	case 201:
		return "201"
	case 204:
		return "204"
	case 400:
		return "400"
	case 404:
		return "404"
	case 413:
		return "413"
	case 429:
		return "429"
	case 499:
		return "499"
	case 500:
		return "500"
	case 503:
		return "503"
	case 504:
		return "504"
	default:
		switch {
		case code >= 200 && code < 300:
			return "2xx"
		case code >= 400 && code < 500:
			return "4xx"
		default:
			return "5xx"
		}
	}
}

// recordStream folds one streaming request's pipeline stats into the
// per-stage stall histograms and stripe counters.
func (m *Metrics) recordStream(op string, st gemmec.StreamStats) {
	if m == nil {
		return
	}
	m.stall[[2]string{op, "read"}].Observe(int64(st.ReadStall))
	m.stall[[2]string{op, "encode"}].Observe(int64(st.EncodeStall))
	m.stall[[2]string{op, "write"}].Observe(int64(st.WriteStall))
	m.stripes[op].Add(st.Stripes)
	for _, d := range st.Demoted {
		m.demotions[ecerr.DemotionCauseClass(d.Cause)].Inc()
	}
}

// recordObjectBytes records one object payload's size for op ("put"/"get").
func (m *Metrics) recordObjectBytes(op string, n int64) {
	if m == nil {
		return
	}
	if h, ok := m.objectBytes[op]; ok {
		h.Observe(n)
	}
}

// recordPatch folds one in-place PATCH into the patch write-set metrics.
func (m *Metrics) recordPatch(ps PatchStats) {
	if m == nil {
		return
	}
	m.patchStripes.Add(int64(ps.TouchedStripes))
	m.patchBytes["data"].Add(ps.DataBytes)
	m.patchBytes["parity"].Add(ps.ParityBytes)
}

// recordScrub folds one completed sweep into the sweep timing metrics.
func (m *Metrics) recordScrub(dur time.Duration, done time.Time) {
	if m == nil {
		return
	}
	m.scrubDur.Observe(int64(dur))
	m.scrubLast.Set(done.Unix())
}
