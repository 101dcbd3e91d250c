package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers, outermost first. A span's parent is the enclosing span of the
// nearest lower rank, so a layer that a stack does not have (no gateway on
// a single node) is simply skipped.
const (
	layerClient  = "client"  // the generator: request sent → last body byte verified
	layerTTFB    = "ttfb"    // client: request sent → response headers
	layerHTTP    = "http"    // wrapping http.Handler on the object API listener
	layerStore   = "store"   // wrapping server.Backend over *server.Store
	layerGateway = "gateway" // wrapping server.Backend over *server.Gateway
	layerFS      = "fs"      // wrapping vfs.FS under the Store
	layerPeer    = "peer"    // wrapping peer.Transport under the Gateway
	layerPeerAPI = "peerapi" // wrapping http.Handler on each peer's listener
	layerLadder  = "ladder"  // one iteration of one ladder rung (no parent)
)

var layerRank = map[string]int{
	layerClient: 0, layerTTFB: 1, layerHTTP: 1, layerStore: 2, layerGateway: 2,
	layerFS: 3, layerPeer: 3, layerPeerAPI: 4, layerLadder: 0,
}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder's epoch (monotonic clock).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`  // 0 = none
	Request  int    `json:"request"` // ID of the client span it belongs to, 0 = none
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Bytes    int64  `json:"bytes"`
	Workload string `json:"workload"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// counter is a named value snapshotted at a layer boundary (Store.Stats,
// Client.Requests, StreamStats, ...), written to the trace file next to
// the spans so per-layer metrics can be recomputed from the file alone.
type counter struct {
	Counter  string  `json:"counter"`
	Value    float64 `json:"value"`
	Workload string  `json:"workload"`
}

// recorder keeps spans in memory; nothing is written until the benchmark
// ends. A nil *recorder records nothing, so untraced stacks share the code.
type recorder struct {
	epoch    time.Time
	workload string

	// queueDepth, when set, is the backend scheduler's QueueDepth; the
	// leaf wrappers sample it while stripes are in flight.
	queueDepth    func() int
	queuePeak     atomic.Int64
	goroutinePeak atomic.Int64 // sampled by the generator at every request
	cutoffNS      atomic.Int64 // when set, spans starting at or after it are dropped

	mu       sync.Mutex
	spans    []span
	counters []counter
}

// sampleQueue notes the scheduler's queue depth at a leaf-layer call.
func (r *recorder) sampleQueue() {
	if r == nil || r.queueDepth == nil {
		return
	}
	raise(&r.queuePeak, int64(r.queueDepth()))
}

// raise lifts peak to v if v is higher.
func raise(peak *atomic.Int64, v int64) {
	for {
		old := peak.Load()
		if v <= old || peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset drops everything recorded so far (the warm-up requests).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans, r.counters = nil, nil
	r.mu.Unlock()
	r.queuePeak.Store(0)
	r.goroutinePeak.Store(0)
}

// counterValues returns every recorded value of the named counter.
func (r *recorder) counterValues(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var vs []float64
	for _, c := range r.counters {
		if c.Counter == name {
			vs = append(vs, c.Value)
		}
	}
	return vs
}

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), workload: workload}
}

// add records a finished span.
func (r *recorder) add(layer, name string, start, end time.Time, bytes int64) {
	if r == nil || r.cut(start) {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Layer: layer, Name: name,
		StartNS: int64(start.Sub(r.epoch)), EndNS: int64(end.Sub(r.epoch)),
		Bytes: bytes, Workload: r.workload,
	})
	r.mu.Unlock()
}

// cutoff ends the trace: work that starts from now on (the untimed checks
// after the measured requests) is not recorded, while spans already under
// way — a handler returning just after its client read the last byte —
// still land.
func (r *recorder) cutoff() { r.cutoffNS.Store(int64(time.Since(r.epoch))) }

func (r *recorder) cut(start time.Time) bool {
	c := r.cutoffNS.Load()
	return c != 0 && int64(start.Sub(r.epoch)) >= c
}

func (r *recorder) count(name string, v float64) {
	if r == nil || r.cut(time.Now()) {
		return
	}
	r.mu.Lock()
	r.counters = append(r.counters, counter{Counter: name, Value: v, Workload: r.workload})
	r.mu.Unlock()
}

// link attaches every span to its request and parent by interval
// containment. The traced run has one client, so client spans are disjoint
// and "the client span whose interval holds this span's start" is
// unambiguous; within a request the parent is the span of the highest
// lower rank that holds the child's start (latest start on ties).
func (r *recorder) link() {
	r.mu.Lock()
	defer r.mu.Unlock()
	var clients []*span
	for i := range r.spans {
		if r.spans[i].Layer == layerClient {
			clients = append(clients, &r.spans[i])
		}
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i].StartNS < clients[j].StartNS })
	byReq := map[int][]*span{}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Layer == layerLadder {
			continue
		}
		if s.Layer == layerClient {
			s.Request = s.ID
		} else {
			j := sort.Search(len(clients), func(j int) bool { return clients[j].StartNS > s.StartNS }) - 1
			if j < 0 || s.StartNS > clients[j].EndNS {
				continue // background work outside any request
			}
			s.Request = clients[j].ID
		}
		byReq[s.Request] = append(byReq[s.Request], s)
	}
	for _, spans := range byReq {
		for _, s := range spans {
			var parent *span
			for _, p := range spans {
				if layerRank[p.Layer] >= layerRank[s.Layer] || p.StartNS > s.StartNS || s.StartNS > p.EndNS {
					continue
				}
				if parent == nil || layerRank[p.Layer] > layerRank[parent.Layer] ||
					(layerRank[p.Layer] == layerRank[parent.Layer] && p.StartNS > parent.StartNS) {
					parent = p
				}
			}
			if parent != nil {
				s.Parent = parent.ID
			}
		}
	}
}

// interval is a half-open [start, end) in recorder nanoseconds.
type interval struct{ start, end int64 }

// unionNS returns the total time covered by ivs, each clipped to within.
func unionNS(ivs []interval, within interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		iv.start, iv.end = max(iv.start, within.start), min(iv.end, within.end)
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curStart, curEnd := int64(0), int64(-1)
	for _, iv := range clipped {
		if curEnd < curStart || iv.start > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = iv.start, iv.end
		} else if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// selfNS is a span's duration minus the part of it its children cover.
func selfNS(s interval, children []interval) int64 {
	return (s.end - s.start) - unionNS(children, s)
}

// writeTo appends the recorder's spans and counters as JSON lines.
func (r *recorder) writeTo(w *bufio.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	for i := range r.counters {
		if err := enc.Encode(&r.counters[i]); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace writes every recorder to path as one JSON-lines file.
func writeTrace(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range recs {
		if err := r.writeTo(w); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
