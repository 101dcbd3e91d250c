package obs

// Request tracing: lightweight propagated spans for the serving path.
//
// This is the Dapper shape at stdlib scale. The HTTP middleware starts one
// Trace per request (pooled — an unsampled request must not allocate in
// steady state), hands it down through context.Context, and every layer
// that wants attribution records spans against it: admission, metadata
// quorum reads, the encode/decode stream, per-peer shard transfers. Spans
// use the monotonic clock (time.Since against the trace's start), so a
// wall-clock step never corrupts a waterfall.
//
// Across the wire, peer.Client injects the TraceHeader
// (traceID/parentSpan/sampled bit) on internal requests; the PeerAPI
// handler times its shard write/read around the store call and returns it
// in the TraceSpansHeader, which the client merges back into the parent
// trace as a remote child span tagged with the member ID. That merge is
// what turns "this quorum PUT took 40ms" into "member 2's shard write
// took 31ms of it".
//
// Retention is tail-based: every request records, and at Finish the
// recorder keeps the trace when it was head-sampled, errored (status >=
// 400, which includes shed 429s and torn 499s), or slower than the
// configured threshold — the flight-recorder property that the request
// you wish you had traced is the one that is still there. Everything else
// goes back to the pool untraced and unallocated.
//
// Concurrency contract: spans may start and end from any goroutine (the
// gateway's per-peer uploaders do), but every goroutine recording into a
// trace must be joined before the request's Finish runs. The serving path
// already guarantees this — the gateway waits its fan-outs — with one
// exception, the majority metadata read, whose straggler goroutines may
// outlive the request; that path deliberately records no client spans
// (the gateway wraps the whole quorum read in one synchronous span
// instead).

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries trace identity on internal peer requests:
// "<traceID hex>-<parent span index>-<sampled 0|1>".
const TraceHeader = "X-Gemmec-Trace"

// TraceSpansHeader carries the peer-side child spans back on the
// response: "name,startUnixNano,durNs,err01" entries joined by ';'.
const TraceSpansHeader = "X-Gemmec-Trace-Spans"

// maxSpans bounds one trace's span table. The largest real request — a
// cluster PUT across 6 members with remote children and stall spans —
// sits near 35; overflow is silently dropped rather than grown, keeping
// the pooled Trace a fixed-size object.
const maxSpans = 64

// spanRec is one recorded interval. Plain fields: each slot is written
// only by the goroutine that allocated it, and readers (the recorder's
// Finish) run after every recording goroutine is joined.
type spanRec struct {
	name   string
	parent int32 // index of the parent span, -1 for top level
	member int32 // cluster member attribution, -1 for local work
	remote bool  // recorded on the peer process, merged here
	err    bool
	arg    int64 // op-defined annotation (stripe count, bytes); 0 = none
	start  int64 // ns offset from the trace's start
	dur    int64 // ns
}

// Trace is one request's live span table. Obtain from Recorder.Start,
// thread via ContextWithTrace, return via Recorder.Finish. All methods
// are nil-receiver safe so untraced paths cost one pointer test.
type Trace struct {
	rec     *Recorder
	id      uint64
	reqID   string
	op      string
	sampled bool
	start   time.Time // wall + monotonic
	n       atomic.Int32
	spans   [maxSpans]spanRec
}

// Span is a handle onto one slot of a trace; the zero Span is a no-op.
type Span struct {
	t   *Trace
	idx int32
}

// ctxKey keys the *Trace in a context.
type ctxKey struct{}

// ContextWithTrace returns a context carrying t. This is the one
// per-request context allocation tracing makes; every layer below reads
// the same pointer back out for free.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFromContext returns the trace carried by ctx, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// StartSpan opens a top-level span on the trace in ctx; a no-op handle
// when ctx carries none.
func StartSpan(ctx context.Context, name string) Span {
	return TraceFromContext(ctx).StartSpan(name)
}

// Sampled reports the head-sampling decision (the wire bit). Retention
// may still keep an unsampled trace at Finish — errored or slow.
func (t *Trace) Sampled() bool { return t != nil && t.sampled }

// IDString formats the trace ID as 16 hex digits — the /tracez join key.
func (t *Trace) IDString() string {
	if t == nil {
		return ""
	}
	return formatID(t.id)
}

func formatID(id uint64) string {
	var b [16]byte
	const hexdigits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// StartSpan opens a top-level span. Safe from any goroutine; allocates
// nothing.
func (t *Trace) StartSpan(name string) Span {
	return t.startSpan(name, -1)
}

func (t *Trace) startSpan(name string, parent int32) Span {
	if t == nil {
		return Span{}
	}
	idx := t.n.Add(1) - 1
	if idx >= maxSpans {
		t.n.Store(maxSpans) // park the counter; further spans drop
		return Span{}
	}
	t.spans[idx] = spanRec{
		name:   name,
		parent: parent,
		member: -1,
		start:  int64(time.Since(t.start)),
	}
	return Span{t: t, idx: idx}
}

// StartChild opens a span nested under sp.
func (sp Span) StartChild(name string) Span {
	if sp.t == nil {
		return Span{}
	}
	return sp.t.startSpan(name, sp.idx)
}

// End closes the span, marking it errored when err is non-nil.
func (sp Span) End(err error) {
	if sp.t == nil {
		return
	}
	rec := &sp.t.spans[sp.idx]
	rec.dur = int64(time.Since(sp.t.start)) - rec.start
	if err != nil {
		rec.err = true
	}
}

// SetMember attributes the span to a cluster member.
func (sp Span) SetMember(id int) {
	if sp.t != nil {
		sp.t.spans[sp.idx].member = int32(id)
	}
}

// SetArg attaches an op-defined integer annotation (stripes, bytes).
func (sp Span) SetArg(v int64) {
	if sp.t != nil {
		sp.t.spans[sp.idx].arg = v
	}
}

// Stalls records the streaming pipeline's stall accounting as child
// spans of sp: read, encode (kernel + scheduler queue wait), write. The
// stalls are cumulative durations, not single intervals, so each bar is
// drawn ending at the stream's current position. Allocates nothing.
func (sp Span) Stalls(read, encode, write time.Duration) {
	if sp.t == nil {
		return
	}
	now := int64(time.Since(sp.t.start))
	sp.t.addInterval("stall.read", sp.idx, now, int64(read))
	sp.t.addInterval("stall.encode", sp.idx, now, int64(encode))
	sp.t.addInterval("stall.write", sp.idx, now, int64(write))
}

// addInterval records a synthetic closed span ending at offset end.
func (t *Trace) addInterval(name string, parent int32, end, dur int64) {
	if dur <= 0 {
		return
	}
	idx := t.n.Add(1) - 1
	if idx >= maxSpans {
		t.n.Store(maxSpans)
		return
	}
	start := end - dur
	if start < 0 {
		start, dur = 0, end
	}
	t.spans[idx] = spanRec{name: name, parent: parent, member: -1, start: start, dur: dur}
}

// WireHeader encodes the TraceHeader value for a peer request whose
// client-side span is sp.
func (t *Trace) WireHeader(sp Span) string {
	if t == nil {
		return ""
	}
	bit := "0"
	if t.sampled {
		bit = "1"
	}
	return formatID(t.id) + "-" + strconv.Itoa(int(sp.idx)) + "-" + bit
}

// EncodeRemoteSpan formats one peer-side span for the TraceSpansHeader.
func EncodeRemoteSpan(name string, start time.Time, dur time.Duration, failed bool) string {
	e := "0"
	if failed {
		e = "1"
	}
	return name + "," + strconv.FormatInt(start.UnixNano(), 10) + "," +
		strconv.FormatInt(int64(dur), 10) + "," + e
}

// AddRemoteSpans parses a TraceSpansHeader value and merges its spans
// into t as remote children of parent, attributed to member. Remote
// starts are wall-clock (cross-process — the only clock that travels);
// they are re-anchored against this trace's wall start, and a start that
// clock skew puts before the trace is floored at offset zero. Nothing
// else is adjusted: a skewed span may still end past its parent.
func (t *Trace) AddRemoteSpans(member int, parent Span, wire string) {
	if t == nil || wire == "" {
		return
	}
	base := t.start.UnixNano()
	for _, entry := range strings.Split(wire, ";") {
		parts := strings.Split(entry, ",")
		if len(parts) != 4 {
			continue
		}
		startUnix, err1 := strconv.ParseInt(parts[1], 10, 64)
		dur, err2 := strconv.ParseInt(parts[2], 10, 64)
		if err1 != nil || err2 != nil || dur < 0 {
			continue
		}
		off := startUnix - base
		if off < 0 {
			off = 0
		}
		idx := t.n.Add(1) - 1
		if idx >= maxSpans {
			t.n.Store(maxSpans)
			return
		}
		t.spans[idx] = spanRec{
			name:   parts[0],
			parent: parent.idx,
			member: int32(member),
			remote: true,
			err:    parts[3] == "1",
			start:  off,
			dur:    dur,
		}
		if parent.t == nil {
			t.spans[idx].parent = -1
		}
	}
}

// RemoteTraceInfo is the parsed TraceHeader a PeerAPI handler sees.
type RemoteTraceInfo struct {
	ID      uint64
	Parent  int
	Sampled bool
	Valid   bool
}

// ParseTraceHeader parses a TraceHeader value; the zero value (Valid
// false) means the request carries no trace.
func ParseTraceHeader(v string) RemoteTraceInfo {
	if v == "" {
		return RemoteTraceInfo{}
	}
	parts := strings.Split(v, "-")
	if len(parts) != 3 || len(parts[0]) != 16 {
		return RemoteTraceInfo{}
	}
	id, err1 := strconv.ParseUint(parts[0], 16, 64)
	parent, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return RemoteTraceInfo{}
	}
	return RemoteTraceInfo{ID: id, Parent: parent, Sampled: parts[2] == "1", Valid: true}
}

// RecorderConfig sizes the flight recorder.
type RecorderConfig struct {
	// Capacity is how many completed traces the ring holds. 0 selects 512.
	Capacity int
	// SampleEvery head-samples 1 in N requests (the wire bit peers see).
	// 0 disables head sampling — only errored and slow traces are kept.
	SampleEvery int
	// Slow is the tail-retention threshold: traces slower than it are
	// always kept, sampled or not. 0 disables the check. Wire it to the
	// same value as -slow-request so /tracez and the slow-request log
	// agree on what "slow" means.
	Slow time.Duration
}

// Recorder is the flight recorder: a pool of live traces and a
// fixed-size ring of retained ones, served at /tracez. One per process.
type Recorder struct {
	cfg  RecorderConfig
	seq  atomic.Uint64
	pool sync.Pool

	mu   sync.Mutex
	ring []*TraceRecord // fixed capacity; next points at the oldest slot
	next int
	len  int

	started  atomic.Uint64
	retained atomic.Uint64
}

// NewRecorder builds a flight recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	r := &Recorder{cfg: cfg, ring: make([]*TraceRecord, cfg.Capacity)}
	r.pool.New = func() any { return &Trace{} }
	// Seed the ID sequence from the clock so two processes' trace IDs
	// don't collide on the same small integers.
	r.seq.Store(uint64(time.Now().UnixNano()))
	return r
}

// Start opens a trace for one request. Allocation-free once the pool is
// warm: the head-sampling decision, ID generation and field resets are
// arithmetic on a pooled object.
func (r *Recorder) Start(op, reqID string) *Trace {
	if r == nil {
		return nil
	}
	r.started.Add(1)
	seq := r.seq.Add(1)
	t := r.pool.Get().(*Trace)
	t.rec = r
	t.id = splitmix64(seq)
	t.reqID = reqID
	t.op = op
	t.sampled = r.cfg.SampleEvery > 0 && seq%uint64(r.cfg.SampleEvery) == 0
	t.start = time.Now()
	t.n.Store(0)
	return t
}

// splitmix64 whitens a sequence number into a well-spread 64-bit ID.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Finish completes the request's trace: tail-based retention decides
// whether it lands in the ring (head-sampled, errored — status >= 400 —
// or slower than the Slow threshold) or returns to the pool untouched.
// Nil-safe on both receiver and trace. Every goroutine that recorded
// spans must be joined before Finish.
func (r *Recorder) Finish(t *Trace, status int) {
	if r == nil || t == nil {
		return
	}
	dur := time.Since(t.start)
	kept := ""
	switch {
	case status >= 400:
		kept = "error"
	case r.cfg.Slow > 0 && dur > r.cfg.Slow:
		kept = "slow"
	case t.sampled:
		kept = "sampled"
	}
	if kept != "" {
		r.retained.Add(1)
		r.insert(t.snapshot(status, dur, kept))
	}
	t.reqID, t.op = "", ""
	r.pool.Put(t)
}

// snapshot copies the live trace into its retained record form.
func (t *Trace) snapshot(status int, dur time.Duration, kept string) *TraceRecord {
	n := int(t.n.Load())
	if n > maxSpans {
		n = maxSpans
	}
	rec := &TraceRecord{
		ID:      formatID(t.id),
		ReqID:   t.reqID,
		Op:      t.op,
		Status:  status,
		Sampled: t.sampled,
		Kept:    kept,
		Start:   t.start,
		DurMs:   ms(int64(dur)),
		Spans:   make([]SpanRecord, 0, n),
	}
	for i := 0; i < n; i++ {
		s := &t.spans[i]
		d := s.dur
		if d == 0 && !s.remote {
			d = int64(dur) - s.start // never ended: extend to trace end
		}
		rec.Spans = append(rec.Spans, SpanRecord{
			Name:    s.name,
			Parent:  int(s.parent),
			Member:  int(s.member),
			Remote:  s.remote,
			Err:     s.err,
			Arg:     s.arg,
			StartMs: ms(s.start),
			DurMs:   ms(d),
		})
	}
	return rec
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func (r *Recorder) insert(rec *TraceRecord) {
	r.mu.Lock()
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
	if r.len < len(r.ring) {
		r.len++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained traces, newest first.
func (r *Recorder) Snapshot() []*TraceRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*TraceRecord, 0, r.len)
	for i := 1; i <= r.len; i++ {
		out = append(out, r.ring[(r.next-i+len(r.ring))%len(r.ring)])
	}
	return out
}

// Find returns the retained trace whose ID or request ID matches, or nil.
func (r *Recorder) Find(idOrReq string) *TraceRecord {
	if r == nil || idOrReq == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 1; i <= r.len; i++ {
		rec := r.ring[(r.next-i+len(r.ring))%len(r.ring)]
		if rec.ID == idOrReq || rec.ReqID == idOrReq {
			return rec
		}
	}
	return nil
}

// Stats reports recorder volume: traces started and traces retained.
func (r *Recorder) Stats() (started, retained uint64) {
	if r == nil {
		return 0, 0
	}
	return r.started.Load(), r.retained.Load()
}

// TraceRecord is a completed, retained trace — what /tracez serves.
type TraceRecord struct {
	ID      string       `json:"id"`
	ReqID   string       `json:"request_id"`
	Op      string       `json:"op"`
	Status  int          `json:"status"`
	Sampled bool         `json:"sampled"`
	Kept    string       `json:"kept"` // sampled | error | slow
	Start   time.Time    `json:"start"`
	DurMs   float64      `json:"duration_ms"`
	Spans   []SpanRecord `json:"spans"`
}

// SpanRecord is one span of a retained trace.
type SpanRecord struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"` // span index, -1 for top level
	Member  int     `json:"member"` // cluster member, -1 for local work
	Remote  bool    `json:"remote,omitempty"`
	Err     bool    `json:"error,omitempty"`
	Arg     int64   `json:"arg,omitempty"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"duration_ms"`
}
