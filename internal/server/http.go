package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"encoding/json"

	"gemmec"
	"gemmec/internal/obs"
)

// statusClientClosedRequest is nginx's convention for "the client went
// away before we finished" — not a standard code, but the de facto one,
// and it keeps canceled requests distinguishable from real 5xx in logs
// and metrics.
const statusClientClosedRequest = 499

// HTTP surface of the daemon. Objects live under /o/<name>:
//
//	PUT    /o/<name>   store the request body as <name> (streaming encode)
//	GET    /o/<name>   stream the object back (degraded reads transparent);
//	                   a single bytes Range header is honored (206 +
//	                   Content-Range, decoding only the covering stripes;
//	                   416 when no requested byte exists; multi-range or
//	                   malformed headers are ignored per RFC 9110)
//	PATCH  /o/<name>   splice the body into the object at the offset named
//	                   by Content-Range ("bytes <off>-<end>/*") or append
//	                   it (X-Gemmec-Append: true); small writes rewrite
//	                   only the touched stripes, XOR-patching their parity
//	HEAD   /o/<name>   metadata + degradation headers, no body
//	DELETE /o/<name>   remove the object
//	GET    /objects    JSON catalog listing
//	POST   /scrub      run one scrub sweep now, return the report
//	GET    /statusz    JSON counters
//	GET    /healthz    liveness probe (503 when the scrub loop is wedged)
//	GET    /metricsz   Prometheus text exposition (when metrics are wired)
//
// Degraded reads are reported in response headers so clients can tell a
// clean read from a reconstructed one without parsing the body:
//
//	X-Gemmec-Degraded: true
//	X-Gemmec-Reconstructed: 0 5
//
// The headers carry what was known at open time, which differs by
// backend. A Store stats every shard file, so its headers name every
// missing or short shard. A Gateway asks only the members whose shards
// the read plan reads, so a clean cluster read's headers do not report a
// lost shard it never touches (the scrub does); once a planned fetch
// fails, the open asks every other member too, and the headers name
// every shard it found gone. Checksum verification runs inside the
// decode itself, so a
// shard can also be demoted after the headers are gone; GET bodies
// therefore stream chunked (object size in X-Gemmec-Size; HEAD still
// reports Content-Length) and the same two
// fields are repeated as HTTP trailers with the final post-stream truth,
// alongside the stream's pipeline accounting (X-Gemmec-Stripes and the
// X-Gemmec-Stall-* durations) for `eccli get -v`. Clients that care
// whether the bytes they just read needed mid-stream reconstruction check
// the trailers; clients that only want open-time state keep reading the
// headers. A decode that fails terminally mid-body aborts the connection,
// so clients see a transport error rather than a short body that parses
// as success.
//
// Every response carries X-Gemmec-Request-Id, which is also the "id"
// field of the corresponding JSON access-log line — the join key between
// a client-observed anomaly and the server's record of it.
//
// The public error taxonomy maps onto status codes: unknown object 404,
// bad name 400, unrecoverable loss (gemmec.ErrTooFewShards, possibly
// with gemmec.ErrCorruptShard) 503 — the object may heal after repair —
// and anything else 500.

// Logf is the logging callback the handler and scrubber accept; nil
// silences logging.
type Logf func(format string, args ...any)

func (f Logf) printf(format string, args ...any) {
	if f != nil {
		f(format, args...)
	}
}

// Config configures the HTTP handler. The zero value serves: no metrics,
// no access log, no timeouts, no size cap, default Retry-After.
type Config struct {
	// Logf receives operational log lines; nil silences them.
	Logf Logf
	// Metrics wires the metrics bundle into the request path and mounts
	// its registry at GET /metricsz.
	Metrics *Metrics
	// Tracer wires the request-tracing flight recorder into the request
	// path and mounts it at GET /tracez. Every request records spans;
	// tail-based retention (see obs.RecorderConfig) decides which traces
	// the ring keeps. Nil disables tracing entirely.
	Tracer *obs.Recorder
	// Scrubber lets /healthz judge liveness by the scrub loop: the probe
	// fails (503) once no sweep has completed within 3× the scrub
	// interval. Without it /healthz degenerates to a bare process-up
	// check.
	Scrubber *Scrubber
	// AccessLog emits one structured JSON line per request.
	AccessLog *obs.Logger
	// SlowRequestThreshold logs (via Logf) and counts requests slower
	// than it. Zero disables the check.
	SlowRequestThreshold time.Duration
	// RequestTimeout bounds every request's context: a PUT or GET that
	// has not finished within it is canceled mid-pipeline (the
	// encode/decode stops between stripes, locks release, temp files are
	// removed) and the client sees 504 — or a torn connection if the body
	// had started. Zero disables the deadline; the context still dies
	// when the client disconnects or the server drains.
	RequestTimeout time.Duration
	// MaxObjectSize rejects PUTs larger than it with 413. Declared
	// oversize bodies (Content-Length) are refused before any shard I/O;
	// chunked bodies are cut off by http.MaxBytesReader mid-stream, which
	// aborts the encode and removes the temporary shard generation — an
	// over-limit upload never leaves partial state. Zero means unlimited.
	MaxObjectSize int64
}

// maxPatchSize bounds PATCH bodies; a larger one is refused with 413.
// PATCH bodies are buffered whole (the stripe planner needs the full
// splice before it touches a shard), so the bound is always enforced. A
// splice bigger than this should be a PUT anyway.
const maxPatchSize = 8 << 20

// retryAfter is the Retry-After header value, in seconds, on shed (429)
// responses.
const retryAfter = "1"

// NewHandler serves store over HTTP. It is NewBackendHandler fixed to
// the local single-node Store — the signature every pre-cluster caller
// compiled against.
func NewHandler(store *Store, cfg Config) http.Handler {
	return NewBackendHandler(store, cfg)
}

// NewBackendHandler serves any Backend — the local Store or the cluster
// Gateway — over the daemon's client HTTP surface.
//
// Streaming routes (PUT and GET bodies) pass through admission control:
// when the backend's scheduler has MaxStreams configured and is full, the
// request is shed with 429 and a Retry-After header instead of queueing
// behind work the server cannot start. Probe and metadata routes —
// /healthz, /metricsz, /statusz, /objects, HEAD — bypass the gate, so an
// overloaded server still answers its health checks and scrapes.
//
// When the backend also implements Rebuilder (the Gateway does), POST
// /rebuild/{id} triggers a full rebuild of cluster member id and returns
// the RebuildStats document.
func NewBackendHandler(backend Backend, cfg Config) http.Handler {
	h := &handler{
		store:      backend,
		logf:       cfg.Logf,
		metrics:    cfg.Metrics,
		tracer:     cfg.Tracer,
		scrubber:   cfg.Scrubber,
		accessLog:  cfg.AccessLog,
		slowReq:    cfg.SlowRequestThreshold,
		reqTimeout: cfg.RequestTimeout,
		maxObject:  cfg.MaxObjectSize,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /o/{name...}", h.wrap("put", true, h.put))
	mux.HandleFunc("GET /o/{name...}", h.wrap("get", true, h.get))
	mux.HandleFunc("PATCH /o/{name...}", h.wrap("patch", true, h.patch))
	mux.HandleFunc("DELETE /o/{name...}", h.wrap("delete", false, h.delete))
	mux.HandleFunc("GET /objects", h.wrap("list", false, h.list))
	mux.HandleFunc("POST /scrub", h.wrap("scrub", false, h.scrub))
	mux.HandleFunc("GET /statusz", h.wrap("status", false, h.statusz))
	mux.HandleFunc("GET /healthz", h.wrap("health", false, h.healthz))
	if _, ok := backend.(Rebuilder); ok {
		mux.HandleFunc("POST /rebuild/{id}", h.wrap("scrub", false, h.rebuild))
	}
	if h.metrics != nil {
		mux.Handle("GET /metricsz", h.metrics.Registry.Handler())
	}
	if h.tracer != nil {
		mux.Handle("GET /tracez", h.tracer.Handler())
	}
	return mux
}

type handler struct {
	store      Backend
	logf       Logf
	metrics    *Metrics
	tracer     *obs.Recorder
	scrubber   *Scrubber
	accessLog  *obs.Logger
	slowReq    time.Duration
	reqTimeout time.Duration
	maxObject  int64
}

// instrumented wraps the ResponseWriter to observe what the handler did:
// committed status, body bytes, time to first body byte. Handlers also
// push facts the wrapper cannot see (object name, degradation) into it,
// so the deferred recorder in wrap has the whole request story in one
// place.
type instrumented struct {
	http.ResponseWriter
	start     time.Time
	status    int
	bytes     int64
	firstByte time.Duration // 0 until the first body write

	// Set by handlers for the access log.
	object        string
	objectBytes   int64 // payload size (PUT: stored; GET: streamed)
	degraded      bool
	demoted       int
	reconstructed int
}

func (iw *instrumented) WriteHeader(code int) {
	if iw.status == 0 {
		iw.status = code
	}
	iw.ResponseWriter.WriteHeader(code)
}

func (iw *instrumented) Write(p []byte) (int, error) {
	if iw.status == 0 {
		iw.status = http.StatusOK
	}
	if iw.firstByte == 0 {
		iw.firstByte = time.Since(iw.start)
	}
	n, err := iw.ResponseWriter.Write(p)
	iw.bytes += int64(n)
	return n, err
}

// Flush passes through so chunked GET bodies keep streaming promptly.
func (iw *instrumented) Flush() {
	if f, ok := iw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap is the per-request instrumentation middleware: request ID,
// in-flight gauge, latency + TTFB histograms, request counter by
// op/status, JSON access log, slow-request check. It recovers a
// mid-stream abort just long enough to record the request (status 499,
// client saw a torn connection) and then re-panics so net/http still
// kills the connection.
func (h *handler) wrap(op string, gated bool, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		o := op
		if o == "get" && r.Method == http.MethodHead {
			o = "head"
		}
		if h.reqTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), h.reqTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		id := obs.NextRequestID()
		w.Header().Set("X-Gemmec-Request-Id", id)
		// Start the request's trace and thread it down through the
		// context. Sampled requests advertise their trace ID so a client
		// (eccli -v) can paste it straight into /tracez; errored and slow
		// requests are retained regardless, findable by request ID.
		tr := h.tracer.Start(o, id)
		if tr != nil {
			if tr.Sampled() {
				w.Header().Set(obs.TraceHeader, tr.IDString())
			}
			r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
		}
		iw := &instrumented{ResponseWriter: w, start: time.Now()}
		if h.metrics != nil {
			h.metrics.inFlight.Add(1)
		}
		defer func() {
			pan := recover()
			dur := time.Since(iw.start)
			status := iw.status
			if status == 0 {
				status = http.StatusOK
			}
			if pan != nil {
				// The handler tore the connection down mid-body; nginx's
				// "client closed"-family code marks it in logs and metrics.
				status = statusClientClosedRequest
			}
			// A request the client didn't stay for — disconnect, deadline,
			// drain — is counted by what killed it, whether the failure
			// surfaced as a status code or a mid-body abort. 499 only
			// arises from client-gone paths (context cancellation, a torn
			// upload body, a mid-body abort), so it counts as canceled
			// even when the context's own cancellation hasn't landed yet.
			canceled, timedOut := false, false
			deadlined := r.Context().Err() != nil &&
				errors.Is(context.Cause(r.Context()), context.DeadlineExceeded)
			switch {
			case deadlined && (pan != nil || status == http.StatusGatewayTimeout):
				timedOut = true
			case pan == nil && status == statusClientClosedRequest:
				canceled = true // surfaced 499: canceled ctx or torn upload body
			case pan != nil && r.Context().Err() != nil:
				canceled = true // mid-body abort with the client already gone
			}
			if h.metrics != nil {
				h.metrics.inFlight.Add(-1)
				h.metrics.recordRequest(o, status, dur)
				if canceled {
					h.metrics.requestsCanceled.Inc()
				}
				if timedOut {
					h.metrics.requestsTimeout.Inc()
				}
				if o == "get" && iw.firstByte > 0 {
					h.metrics.getTTFB.Observe(int64(iw.firstByte))
				}
				if h.slowReq > 0 && dur > h.slowReq {
					h.metrics.slowRequests.Inc()
				}
			}
			if h.slowReq > 0 && dur > h.slowReq {
				h.logf.printf("ecserver: slow request id=%s %s %s: %v (threshold %v)",
					id, r.Method, r.URL.Path, dur, h.slowReq)
			}
			if h.accessLog != nil {
				fields := map[string]any{
					"id":          id,
					"op":          o,
					"method":      r.Method,
					"path":        r.URL.Path,
					"status":      status,
					"duration_ms": float64(dur) / float64(time.Millisecond),
					"bytes":       iw.bytes,
					"remote":      r.RemoteAddr,
				}
				if iw.object != "" {
					fields["object"] = iw.object
				}
				if iw.objectBytes > 0 {
					fields["object_bytes"] = iw.objectBytes
				}
				if iw.degraded {
					fields["degraded"] = true
				}
				if iw.demoted > 0 {
					fields["demoted"] = iw.demoted
				}
				if iw.reconstructed > 0 {
					fields["reconstructed"] = iw.reconstructed
				}
				if iw.firstByte > 0 {
					fields["ttfb_ms"] = float64(iw.firstByte) / float64(time.Millisecond)
				}
				if pan != nil {
					fields["aborted"] = true
				}
				if canceled {
					fields["canceled"] = true
				}
				if timedOut {
					fields["timeout"] = true
				}
				h.accessLog.Log("access", fields)
			}
			// Safe here: every goroutine that records spans is joined
			// before the handler body returns (the gateway waits its
			// uploader/fetcher fan-outs), so the trace is quiescent.
			h.tracer.Finish(tr, status)
			if pan != nil {
				panic(pan)
			}
		}()
		// Admission control: a streaming request past the scheduler's
		// MaxStreams bound is shed here — cheap 429 with a Retry-After
		// instead of a request that queues behind work the pool cannot
		// start. HEAD reads no payload, so it rides free; the probe and
		// metadata routes are not gated at all (a health check or metrics
		// scrape must answer precisely when the server is saturated).
		if gated && o != "head" {
			sc := h.store.Scheduler()
			asp := tr.StartSpan("admit")
			err := sc.Admit()
			asp.End(err)
			if err != nil {
				iw.Header().Set("Retry-After", retryAfter)
				// The admission error's detail (admitted-stream and queue
				// counts) is server-internal state — operators read it off
				// /statusz and /metricsz; clients get a stable, opaque
				// message.
				http.Error(iw, "overloaded, retry later", http.StatusTooManyRequests)
				return
			}
			defer sc.Release()
		}
		fn(iw, r)
	}
}

// errStatus maps the error taxonomy to an HTTP status.
func errStatus(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, errBodyTorn):
		// The client is almost certainly gone; the code is for our own
		// logs and metrics, not for anyone still reading the socket.
		return statusClientClosedRequest
	case errors.Is(err, ErrObjectNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBadObjectName), errors.Is(err, ErrBadPatchRange):
		return http.StatusBadRequest
	case errors.Is(err, ErrRangeNotSatisfiable):
		// A PATCH offset past the end of the object (the GET path answers
		// its own 416 so it can attach Content-Range: bytes */size).
		return http.StatusRequestedRangeNotSatisfiable
	case errors.Is(err, gemmec.ErrTooFewShards), errors.Is(err, gemmec.ErrCorruptShard):
		// The bytes exist but cannot currently be served; repair may
		// restore them, so signal a retryable service condition.
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrWriteQuorum):
		// The write was cleanly abandoned — nothing committed — and the
		// cluster may heal, so the client should retry, not give up.
		return http.StatusServiceUnavailable
	case errors.Is(err, gemmec.ErrShardStreams), errors.Is(err, gemmec.ErrShardCount),
		errors.Is(err, gemmec.ErrShardSize):
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

func (h *handler) fail(w http.ResponseWriter, r *http.Request, err error) {
	// A handler error surfacing as 5xx while the request context is dead is
	// almost always a symptom of the disconnect or deadline (the body read
	// fails, the pipeline aborts); attribute it to the context's cause so
	// the status, logs and cancellation counters blame the real killer. A
	// genuine handler error under a live context is untouched.
	if r.Context().Err() != nil && errStatus(err) >= http.StatusInternalServerError {
		err = fmt.Errorf("server: request %w (handler error: %v)", context.Cause(r.Context()), err)
	}
	code := errStatus(err)
	if code >= 500 {
		h.logf.printf("ecserver: %s %s: %v", r.Method, r.URL.Path, err)
	}
	http.Error(w, err.Error(), code)
}

// writeJSON sets the content type before committing status, so non-200
// responses (the 201 PUT reply) still carry application/json.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// streamStatsJSON is the wire form of gemmec.StreamStats in the PUT reply,
// consumed by `eccli put -v`.
type streamStatsJSON struct {
	Stripes     int64  `json:"stripes"`
	ReadStall   string `json:"read_stall"`
	EncodeStall string `json:"encode_stall"`
	WriteStall  string `json:"write_stall"`
	Elapsed     string `json:"elapsed"`
	Demoted     int    `json:"demoted"`
}

func statsJSON(st gemmec.StreamStats) *streamStatsJSON {
	return &streamStatsJSON{
		Stripes:     st.Stripes,
		ReadStall:   st.ReadStall.String(),
		EncodeStall: st.EncodeStall.String(),
		WriteStall:  st.WriteStall.String(),
		Elapsed:     st.Elapsed.String(),
		Demoted:     len(st.Demoted),
	}
}

// putResponse is the JSON body of a successful PUT.
type putResponse struct {
	Name      string           `json:"name"`
	Size      int64            `json:"size"`
	Stripes   int              `json:"stripes"`
	K         int              `json:"k"`
	R         int              `json:"r"`
	Placement []int            `json:"placement"`
	Stats     *streamStatsJSON `json:"stats,omitempty"`
}

// errBodyTorn marks an upload body that ended mid-chunk: the client
// vanished rather than finishing. It deliberately does NOT wrap
// io.ErrUnexpectedEOF — the encode pipeline treats that error as a
// legitimate short final stripe (pad and commit), which for a torn
// chunked upload would commit a silently truncated object.
var errBodyTorn = errors.New("server: request body torn mid-upload")

// tornBodyGuard rewrites io.ErrUnexpectedEOF from the request body into
// errBodyTorn. A well-formed chunked body terminates with io.EOF;
// ErrUnexpectedEOF only ever means the connection died inside a chunk,
// so the PUT must fail (and clean up) instead of padding out the stripe.
type tornBodyGuard struct{ r io.Reader }

func (g *tornBodyGuard) Read(p []byte) (int, error) {
	n, err := g.r.Read(p)
	if errors.Is(err, io.ErrUnexpectedEOF) {
		err = errBodyTorn
	}
	return n, err
}

func (h *handler) put(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body := io.Reader(r.Body)
	if h.maxObject > 0 {
		if r.ContentLength > h.maxObject {
			// Declared oversize: refuse before touching any shard file.
			h.fail(w, r, &http.MaxBytesError{Limit: h.maxObject})
			return
		}
		// Chunked (or lying) bodies are cut off mid-stream; the resulting
		// *http.MaxBytesError aborts the encode, which removes the
		// temporary shard generation before Put returns.
		body = http.MaxBytesReader(w, r.Body, h.maxObject)
	}
	body = &tornBodyGuard{r: body}
	meta, st, err := h.store.Put(r.Context(), name, body, r.ContentLength)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	if iw, ok := w.(*instrumented); ok {
		iw.object = meta.Name
		iw.objectBytes = meta.Size()
	}
	writeJSON(w, http.StatusCreated, putResponse{
		Name:      meta.Name,
		Size:      meta.Size(),
		Stripes:   meta.Manifest.Stripes,
		K:         meta.Manifest.K,
		R:         meta.Manifest.R,
		Placement: meta.Placement,
		Stats:     statsJSON(st),
	})
}

// shardList formats shard indices as the space-separated header value.
func shardList(bad []int) string {
	s := ""
	for i, b := range bad {
		if i > 0 {
			s += " "
		}
		s += strconv.Itoa(b)
	}
	return s
}

// parseRangeHeader parses a Range header value into the OpenRange
// convention: off == -1 requests the final length bytes (suffix form
// "-n"), length == -1 requests from off to the end ("a-"). ok == false
// means the header must be ignored and the full body served — RFC 9110
// treats unknown units, multi-range lists and malformed values as "not
// applicable", never as errors.
func parseRangeHeader(v string) (off, length int64, ok bool) {
	spec, found := strings.CutPrefix(v, "bytes=")
	if !found {
		return 0, 0, false
	}
	if strings.Contains(spec, ",") {
		return 0, 0, false // multi-range: serve the full body instead
	}
	first, last, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found {
		return 0, 0, false
	}
	if first == "" { // "-n": the final n bytes
		n, err := strconv.ParseInt(last, 10, 64)
		if err != nil || n < 0 {
			return 0, 0, false
		}
		return -1, n, true
	}
	a, err := strconv.ParseInt(first, 10, 64)
	if err != nil || a < 0 {
		return 0, 0, false
	}
	if last == "" { // "a-": from a to the end
		return a, -1, true
	}
	b, err := strconv.ParseInt(last, 10, 64)
	if err != nil || b < a {
		return 0, 0, false
	}
	// b-a+1 bytes, saturated: "bytes=0-9223372036854775807" names 2^63 of
	// them, one more than an int64 holds, and must not wrap negative into
	// the "to the end" convention. No object is that long; resolveRange
	// clamps the length to the object either way.
	n := b - a
	if n < math.MaxInt64 {
		n++
	}
	return a, n, true
}

// openForGet opens the object, honoring a well-formed single bytes Range
// header. ranged reports whether the response must be a 206. A nil
// stream with handled == true means the response (416 or an error) was
// already written.
func (h *handler) openForGet(w http.ResponseWriter, r *http.Request, name string) (o ObjectStream, ranged bool, handled bool) {
	hv := r.Header.Get("Range")
	w.Header().Set("Accept-Ranges", "bytes")
	// HEAD ignores Range (RFC 9110 allows it; our HEAD describes the
	// whole object). Anything unparseable falls through to a full 200.
	if hv != "" && r.Method != http.MethodHead {
		if off, length, ok := parseRangeHeader(hv); ok {
			rs, err := h.store.OpenRange(r.Context(), name, off, length)
			var re *RangeError
			switch {
			case errors.As(err, &re):
				w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", re.Size))
				http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
				return nil, false, true
			case err != nil:
				h.fail(w, r, err)
				return nil, false, true
			}
			return rs, true, false
		}
	}
	full, err := h.store.Open(r.Context(), name)
	if err != nil {
		h.fail(w, r, err)
		return nil, false, true
	}
	return full, false, false
}

func (h *handler) get(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	o, ranged, handled := h.openForGet(w, r, name)
	if handled {
		return
	}
	defer o.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Gemmec-Size", strconv.FormatInt(o.Size(), 10))
	w.Header().Set("X-Gemmec-Degraded", strconv.FormatBool(o.Degraded()))
	if bad := o.Unusable(); len(bad) > 0 {
		w.Header().Set("X-Gemmec-Reconstructed", shardList(bad))
	}
	if r.Method == http.MethodHead {
		// No body to trail: Content-Length is free here, and HEAD clients
		// expect it.
		w.Header().Set("Content-Length", strconv.FormatInt(o.Size(), 10))
		return
	}
	bodyLen := o.Size()
	if ranged {
		off, length := o.(RangedStream).Range()
		bodyLen = length
		w.Header().Set("Content-Range",
			fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, o.Size()))
	}
	// The body streams chunked (no Content-Length) so the final
	// degradation state — which may grow mid-stream as the verifying
	// decode demotes shards — can ride the trailers (set via
	// http.TrailerPrefix, which needs no pre-declaration).
	if ranged {
		w.WriteHeader(http.StatusPartialContent)
	}
	st, err := o.Stream(w)
	if err != nil {
		// Headers are gone; abort the connection so the client sees a
		// transport error instead of a short-but-well-formed body.
		h.logf.printf("ecserver: GET %s: decode failed mid-stream: %v", r.URL.Path, err)
		panic(http.ErrAbortHandler)
	}
	if iw, ok := w.(*instrumented); ok {
		iw.object = o.Name()
		iw.objectBytes = bodyLen
		iw.degraded = o.Degraded()
		iw.demoted = len(o.Demoted())
		iw.reconstructed = len(o.Unusable())
	}
	w.Header().Set(http.TrailerPrefix+"X-Gemmec-Degraded", strconv.FormatBool(o.Degraded()))
	if bad := o.Unusable(); len(bad) > 0 {
		w.Header().Set(http.TrailerPrefix+"X-Gemmec-Reconstructed", shardList(bad))
	}
	// Stream accounting trailers: what `eccli get -v` shows an operator
	// without access to the server's /metricsz.
	w.Header().Set(http.TrailerPrefix+"X-Gemmec-Stripes", strconv.FormatInt(st.Stripes, 10))
	w.Header().Set(http.TrailerPrefix+"X-Gemmec-Stall-Read", st.ReadStall.String())
	w.Header().Set(http.TrailerPrefix+"X-Gemmec-Stall-Encode", st.EncodeStall.String())
	w.Header().Set(http.TrailerPrefix+"X-Gemmec-Stall-Write", st.WriteStall.String())
	if n := len(st.Demoted); n > 0 {
		w.Header().Set(http.TrailerPrefix+"X-Gemmec-Demoted", strconv.Itoa(n))
	}
}

// patchResponse is the JSON body of a successful PATCH.
type patchResponse struct {
	Name    string `json:"name"`
	Size    int64  `json:"size"`
	Length  int    `json:"length"`
	Stripes int    `json:"stripes"`
	PatchStats
}

// parsePatchOffset resolves where a PATCH body lands: "X-Gemmec-Append:
// true" appends; otherwise "Content-Range: bytes <first>-<last>/<size|*>"
// names the offset (only <first> positions the write; <last>, when
// given, must agree with the body length).
func parsePatchOffset(r *http.Request) (int64, error) {
	if v := r.Header.Get("X-Gemmec-Append"); v != "" {
		app, err := strconv.ParseBool(v)
		if err != nil {
			return 0, fmt.Errorf("server: bad X-Gemmec-Append %q: %w", v, ErrBadPatchRange)
		}
		if app {
			return -1, nil
		}
	}
	v := r.Header.Get("Content-Range")
	if v == "" {
		return 0, fmt.Errorf("server: PATCH needs Content-Range (bytes <off>-<end>/*) or X-Gemmec-Append: true: %w", ErrBadPatchRange)
	}
	spec, found := strings.CutPrefix(v, "bytes ")
	if !found {
		return 0, fmt.Errorf("server: bad Content-Range %q (want bytes <off>-<end>/*): %w", v, ErrBadPatchRange)
	}
	rng, _, found := strings.Cut(spec, "/")
	if !found {
		return 0, fmt.Errorf("server: bad Content-Range %q (missing /): %w", v, ErrBadPatchRange)
	}
	first, last, found := strings.Cut(strings.TrimSpace(rng), "-")
	if !found {
		return 0, fmt.Errorf("server: bad Content-Range %q: %w", v, ErrBadPatchRange)
	}
	off, err := strconv.ParseInt(first, 10, 64)
	if err != nil || off < 0 {
		return 0, fmt.Errorf("server: bad Content-Range offset %q: %w", first, ErrBadPatchRange)
	}
	if last != "" && r.ContentLength >= 0 {
		end, err := strconv.ParseInt(last, 10, 64)
		if err != nil || end < off {
			return 0, fmt.Errorf("server: bad Content-Range end %q: %w", last, ErrBadPatchRange)
		}
		if end-off+1 != r.ContentLength {
			return 0, fmt.Errorf("server: Content-Range %q spans %d bytes but body is %d: %w",
				v, end-off+1, r.ContentLength, ErrBadPatchRange)
		}
	}
	return off, nil
}

// ErrBadPatchRange marks a PATCH whose positioning headers are absent or
// malformed (400) — unlike GET's Range, which is advisory and ignorable,
// a write must know exactly where it lands.
var ErrBadPatchRange = errors.New("server: bad patch range")

func (h *handler) patch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	off, err := parsePatchOffset(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if r.ContentLength > maxPatchSize {
		h.fail(w, r, &http.MaxBytesError{Limit: maxPatchSize})
		return
	}
	// The splice is buffered whole: the stripe planner reads old units
	// and XOR-patches parity before any byte lands, so it needs the full
	// window up front. MaxBytesReader turns an over-limit chunked body
	// into a 413 before the store is touched.
	data, err := io.ReadAll(&tornBodyGuard{r: http.MaxBytesReader(w, r.Body, maxPatchSize)})
	if err != nil {
		h.fail(w, r, err)
		return
	}
	meta, ps, err := h.store.Patch(r.Context(), name, data, off)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	if iw, ok := w.(*instrumented); ok {
		iw.object = meta.Name
		iw.objectBytes = int64(len(data))
	}
	writeJSON(w, http.StatusOK, patchResponse{
		Name:       meta.Name,
		Size:       meta.Size(),
		Length:     len(data),
		Stripes:    meta.Manifest.Stripes,
		PatchStats: ps,
	})
}

func (h *handler) delete(w http.ResponseWriter, r *http.Request) {
	if err := h.store.Delete(r.Context(), r.PathValue("name")); err != nil {
		h.fail(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// listEntry is one row of the /objects catalog.
type listEntry struct {
	Name    string `json:"name"`
	Size    int64  `json:"size"`
	Stripes int    `json:"stripes"`
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	metas, err := h.store.StatAll()
	if err != nil {
		h.fail(w, r, err)
		return
	}
	out := make([]listEntry, 0, len(metas))
	for _, meta := range metas {
		out = append(out, listEntry{Name: meta.Name, Size: meta.Size(), Stripes: meta.Manifest.Stripes})
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *handler) scrub(w http.ResponseWriter, r *http.Request) {
	rep := h.store.ScrubAll(r.Context())
	if n := rep.ShardsHealed(); n > 0 {
		h.logf.printf("ecserver: scrub healed %d shard(s) across %d object(s)", n, len(rep.Healed))
	}
	writeJSON(w, http.StatusOK, rep)
}

func (h *handler) statusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.store.StatusSnapshot())
}

// rebuild serves POST /rebuild/{id}: reconstruct every shard cluster
// member {id} should hold and push them to it. Only mounted when the
// backend implements Rebuilder.
func (h *handler) rebuild(w http.ResponseWriter, r *http.Request) {
	rb, ok := h.store.(Rebuilder)
	if !ok {
		http.Error(w, "backend cannot rebuild members", http.StatusNotImplemented)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad member id", http.StatusBadRequest)
		return
	}
	st, err := rb.RebuildNode(r.Context(), id)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	h.logf.printf("ecserver: rebuild of member %d: %d shard(s) across %d object(s), %d bytes read, %d written",
		id, st.ShardsRebuilt, st.Objects, st.BytesRead, st.BytesWritten)
	writeJSON(w, http.StatusOK, st)
}

// healthResponse is the JSON body of /healthz.
type healthResponse struct {
	Status             string `json:"status"`
	LastScrubCompleted string `json:"last_scrub_completed,omitempty"`
	ScrubInterval      string `json:"scrub_interval,omitempty"`
}

// healthz reports liveness truthfully: with a scrubber wired in, the
// probe fails once no sweep has completed within 3× the scrub interval —
// comfortably beyond the jitter ceiling of 1.5× — because a daemon whose
// repair loop is wedged is not healthy no matter how happily it serves
// reads. Without a scrubber (tests, scrub-disabled deployments) it stays
// a bare process-up 200.
func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	if h.scrubber == nil {
		writeJSON(w, http.StatusOK, healthResponse{Status: "ok"})
		return
	}
	last := h.scrubber.LastCompleted()
	resp := healthResponse{
		Status:             "ok",
		LastScrubCompleted: last.UTC().Format(time.RFC3339Nano),
		ScrubInterval:      h.scrubber.Interval().String(),
	}
	if wedge := 3 * h.scrubber.Interval(); time.Since(last) > wedge {
		resp.Status = fmt.Sprintf("scrub wedged: no sweep completed in %v (limit %v)",
			time.Since(last).Round(time.Millisecond), wedge)
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
