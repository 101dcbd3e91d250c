package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gemmec/internal/core"
)

// pass is one fixed-count, one-client run of a workload: every phase
// issues exactly the same number of requests on every run, so counts taken
// from it repeat exactly. With a recorder the stack carries the wrappers
// and the pass is the traced run; without, it is the untraced twin whose
// latencies the tracing overhead is measured against.
type pass struct {
	spec     *workloadSpec
	rec      *recorder // nil on the untraced twin
	writeOp  string    // client span name of the write phase: put or patch
	p50      map[string]float64
	ops      int
	mallocs  uint64
	shed     int64
	peerFail int64
}

func tracedCount(spec *workloadSpec, prof *profile) int {
	switch {
	case spec.cluster:
		return prof.tracedCluster
	case spec.small:
		return prof.tracedSmall
	}
	return prof.tracedLarge
}

// runPass sets the workload up once, warms it with a few unrecorded
// requests, then issues count requests per phase.
func runPass(spec *workloadSpec, prof *profile, seed int64, scratch string, rec *recorder) (*pass, *runner, error) {
	one := *prof
	one.setups = 1
	single := *spec
	single.clients = 1
	r := newRunner(&single, &one, seed, scratch, rec)
	defer r.teardown()
	if err := r.setup(); err != nil {
		return nil, r, err
	}
	for _, p := range r.phases {
		r.runPhase(p, 0, 2, false)
	}
	if rec != nil {
		rec.reset()
	}
	r.attempted.Store(0)
	count := tracedCount(spec, prof)
	ps := &pass{spec: spec, rec: rec, writeOp: r.phases[0].op.String(), p50: map[string]float64{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range r.phases {
		r.runPhase(p, 0, count, true)
		ps.p50[p.metric] = p.roundP50[0]
		ps.ops += count
	}
	runtime.ReadMemStats(&after)
	ps.mallocs = after.Mallocs - before.Mallocs
	ps.shed = r.st.backend.Scheduler().Shed()
	for _, c := range r.st.clients {
		ps.peerFail += c.Failures()
	}
	if rec != nil {
		rec.cutoff() // the checks below are not part of the trace
	}
	r.finish()
	if rec != nil {
		rec.link()
	}
	return ps, r, nil
}

// request is one client span with every span attached to it.
type request struct {
	client *span
	spans  []*span
}

// requests groups a linked recorder's spans by request, keeping those
// whose client span is named op, in start order.
func (r *recorder) requests(op string) []request {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := map[int]int{}
	var out []request
	for i := range r.spans {
		s := &r.spans[i]
		if s.Layer == layerClient && s.Name == op {
			idx[s.ID] = len(out)
			out = append(out, request{client: s})
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if j, ok := idx[s.Request]; ok && s.Layer != layerClient {
			out[j].spans = append(out[j].spans, s)
		}
	}
	return out
}

// of returns the request's spans on layer, optionally only the named ones.
func (q request) of(layer string, names ...string) []*span {
	var out []*span
	for _, s := range q.spans {
		if s.Layer != layer {
			continue
		}
		if len(names) == 0 {
			out = append(out, s)
			continue
		}
		for _, n := range names {
			if s.Name == n {
				out = append(out, s)
			}
		}
	}
	return out
}

func intervals(spans []*span) []interval {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.StartNS, s.EndNS}
	}
	return ivs
}

// busy is the time during which any of spans was running.
func busy(spans []*span) time.Duration {
	return time.Duration(unionNS(intervals(spans), interval{0, 1<<63 - 1}))
}

// self is the summed self time of the parent spans given their children.
func selfOf(parents, children []*span) time.Duration {
	kids := intervals(children)
	var total int64
	for _, p := range parents {
		total += selfNS(interval{p.StartNS, p.EndNS}, kids)
	}
	return time.Duration(total)
}

// medianOver evaluates f on every request and returns the median, in ms.
func medianOver(reqs []request, f func(request) time.Duration) float64 {
	vs := make([]float64, len(reqs))
	for i, q := range reqs {
		vs[i] = ms(f(q))
	}
	return median(vs)
}

// perRequest is the mean of an exact count over requests.
func perRequest(reqs []request, f func(request) int64) float64 {
	if len(reqs) == 0 {
		return 0
	}
	var total int64
	for _, q := range reqs {
		total += f(q)
	}
	return float64(total) / float64(len(reqs))
}

func sumBytes(spans []*span) int64 {
	var n int64
	for _, s := range spans {
		n += s.Bytes
	}
	return n
}

func clientBytes(reqs []request) int64 {
	var n int64
	for _, q := range reqs {
		n += q.client.Bytes
	}
	return n
}

// tail reports the tail latency of reqs' client spans: the value, the
// percentile used and the sample count.
func tail(reqs []request) (v float64, p float64, n int) {
	durs := make([]time.Duration, len(reqs))
	for i, q := range reqs {
		durs[i] = q.client.dur()
	}
	sortDurations(durs)
	p, d := tailPercentile(durs)
	return ms(d), p, len(durs)
}

// ownLayers derives the metrics every workload's own traced pass yields:
// the HTTP layer's share, where the streams waited, and what tracing cost.
func ownLayers(own, twin *pass, out map[string]float64, notes *[]string) {
	rec := own.rec
	backend := layerStore
	if own.spec.cluster {
		backend = layerGateway
	}
	writes, gets := rec.requests(own.writeOp), rec.requests("get")
	httpSelf := func(q request) time.Duration { return q.client.dur() - busy(q.of(backend)) }
	out["http.put_self_ms"] = medianOver(writes, httpSelf)
	out["http.get_self_ms"] = medianOver(gets, httpSelf)
	out["http.get_ttfb_ms"] = medianOver(gets, func(q request) time.Duration {
		if t := q.of(layerTTFB); len(t) > 0 {
			return t[0].dur()
		}
		return 0
	})
	for _, t := range []struct {
		name string
		reqs []request
	}{{"http.put_tail_ms", writes}, {"http.get_tail_ms", gets}} {
		v, p, n := tail(t.reqs)
		out[t.name] = v
		*notes = append(*notes, fmt.Sprintf("%s is p%g of n=%d", t.name, p, n))
	}
	for _, c := range []string{"put", "get"} {
		for _, stage := range []string{"read", "kernel", "write"} {
			name := "pipeline." + c + "_" + stage + "_stall_frac"
			out[name] = median(rec.counterValues(name))
		}
	}
	out["sched.queue_peak"] = float64(rec.queuePeak.Load())
	out["proc.goroutines_peak"] = float64(rec.goroutinePeak.Load())
	out["proc.allocs_per_op"] = float64(own.mallocs) / float64(own.ops)
	var traced, plain float64
	for metric, v := range own.p50 {
		traced += v
		plain += twin.p50[metric]
	}
	if plain > 0 {
		out["trace.overhead_frac"] = traced/plain - 1
	}
}

// nodeLayers derives the single-node layer metrics from a node workload's
// traced pass: the Store's self time and what it pushed through vfs.FS.
func nodeLayers(node *pass, out map[string]float64) {
	rec := node.rec
	writes, gets := rec.requests(node.writeOp), rec.requests("get")
	storeSelf := func(q request) time.Duration { return selfOf(q.of(layerStore), q.of(layerFS)) }
	fsBusy := func(q request) time.Duration { return busy(q.of(layerFS)) }
	out["store.put_self_ms"] = medianOver(writes, storeSelf)
	out["store.get_self_ms"] = medianOver(gets, storeSelf)
	out["store.requests_shed"] = float64(node.shed)
	out["fs.busy_ms_per_put"] = medianOver(writes, fsBusy)
	out["fs.busy_ms_per_get"] = medianOver(gets, fsBusy)
	count := func(names ...string) func(request) int64 {
		return func(q request) int64 { return int64(len(q.of(layerFS, names...))) }
	}
	out["fs.files_created_per_put"] = perRequest(writes, count("create", "write_file"))
	out["fs.writes_per_put"] = perRequest(writes, count("write", "write_file"))
	out["fs.renames_per_put"] = perRequest(writes, count("rename"))
	out["fs.reads_per_get"] = perRequest(gets, count("read", "read_file"))
	var written, read int64
	for _, q := range writes {
		written += sumBytes(q.of(layerFS, "write", "write_file"))
	}
	for _, q := range gets {
		read += sumBytes(q.of(layerFS, "read", "read_file"))
	}
	if n := clientBytes(writes); n > 0 {
		out["fs.bytes_written_per_user_byte"] = float64(written) / float64(n)
	}
	if n := clientBytes(gets); n > 0 {
		out["fs.bytes_read_per_user_byte"] = float64(read) / float64(n)
	}
}

// clusterLayers derives the cluster layer metrics from cluster_large's
// traced pass: the Gateway's self time, whether its shard and metadata
// RPCs overlap, and what each RPC cost on the wire.
func clusterLayers(cl *pass, out map[string]float64) {
	rec := cl.rec
	puts, gets := rec.requests("put"), rec.requests("get")
	gwSelf := func(q request) time.Duration { return selfOf(q.of(layerGateway), q.of(layerPeer)) }
	out["gateway.put_self_ms"] = medianOver(puts, gwSelf)
	out["gateway.get_self_ms"] = medianOver(gets, gwSelf)
	out["gateway.shard_phase_ms"] = medianOver(puts, func(q request) time.Duration { return busy(q.of(layerPeer, "put_shard")) })
	out["gateway.meta_phase_ms"] = medianOver(puts, func(q request) time.Duration { return busy(q.of(layerPeer, "put_meta")) })
	rpcs := func(q request) int64 { return int64(len(q.of(layerPeer))) }
	out["peer.rpcs_per_put"] = perRequest(puts, rpcs)
	out["peer.rpcs_per_get"] = perRequest(gets, rpcs)
	out["peer.failures"] = float64(cl.peerFail)
	var putShard, putMeta, getRate []float64
	for _, q := range puts {
		for _, s := range q.of(layerPeer, "put_shard") {
			putShard = append(putShard, ms(s.dur()))
		}
		for _, s := range q.of(layerPeer, "put_meta") {
			putMeta = append(putMeta, ms(s.dur()))
		}
	}
	for _, q := range gets {
		for _, s := range q.of(layerPeer, "get_shard") {
			getRate = append(getRate, mbps(s.Bytes, s.dur()))
		}
	}
	out["peer.put_shard_ms"] = median(putShard)
	out["peer.put_meta_ms"] = median(putMeta)
	out["peer.get_shard_mbps"] = median(getRate)
}

// tracedResult is everything one `-trace 1` run of a workload produced.
type tracedResult struct {
	metrics   map[string]float64
	notes     []string
	recorders []*recorder
	attempted int64
	failed    int64
	errs      []string
}

// runTraced produces every per-layer metric for one workload: the ladder
// pass, the workload's untraced and traced fixed-count passes, and — for
// the layers the workload's own stack does not have — a traced pass of
// the reference workload of the other stack kind (node_large for the
// Store and vfs layers, cluster_large for the Gateway and peer layers).
func runTraced(spec *workloadSpec, prof *profile, seed int64, scratch string, budget time.Duration) (*tracedResult, error) {
	res := &tracedResult{metrics: map[string]float64{}}
	cache0 := core.ReadDecoderCacheCounters()

	ladderRec := newRecorder("ladder")
	res.recorders = append(res.recorders, ladderRec)
	ladderDir, err := freshRoot(scratch, "ladder-")
	if err != nil {
		return nil, err
	}
	lad, err := runLadder(prof, seed, ladderDir, budget, ladderRec)
	os.RemoveAll(ladderDir)
	if err != nil {
		return nil, err
	}
	for k, v := range lad.out {
		res.metrics[k] = v
	}

	collect := func(ps *pass, r *runner, err error) (*pass, error) {
		if r != nil {
			res.attempted += r.attempted.Load()
			res.failed += r.failed.Load()
			res.errs = append(res.errs, r.firstErrs...)
		}
		return ps, err
	}
	twin, err := collect(runPass(spec, prof, seed, scratch, nil))
	if err != nil {
		return nil, err
	}
	ownRec := newRecorder(spec.name)
	res.recorders = append(res.recorders, ownRec)
	own, err := collect(runPass(spec, prof, seed, scratch, ownRec))
	if err != nil {
		return nil, err
	}
	ownLayers(own, twin, res.metrics, &res.notes)

	node, cluster := own, own
	if spec.cluster {
		rec := newRecorder("node_large")
		res.recorders = append(res.recorders, rec)
		if node, err = collect(runPass(findWorkload("node_large"), prof, seed, scratch, rec)); err != nil {
			return nil, err
		}
	} else {
		rec := newRecorder("cluster_large")
		res.recorders = append(res.recorders, rec)
		if cluster, err = collect(runPass(findWorkload("cluster_large"), prof, seed, scratch, rec)); err != nil {
			return nil, err
		}
	}
	nodeLayers(node, res.metrics)
	clusterLayers(cluster, res.metrics)

	cache := core.ReadDecoderCacheCounters()
	if lookups := (cache.Hits - cache0.Hits) + (cache.Misses - cache0.Misses); lookups > 0 {
		res.metrics["core.decoder_cache_hit_ratio"] = float64(cache.Hits-cache0.Hits) / float64(lookups)
	}
	res.metrics["proc.peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
