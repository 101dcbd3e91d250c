package server

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gemmec/internal/obs"
	"gemmec/internal/peer"
)

// NewPeerAPI serves ps over the internal shard-transfer API — the wire
// every peer.Client speaks:
//
//	PUT    /internal/shard/{key}/{gen}/{idx}   store one shard (atomic; ?replace=1 overwrites)
//	GET    /internal/shard/{key}/{gen}/{idx}   stream one shard (Range → 206 window)
//	HEAD   /internal/shard/{key}/{gen}/{idx}   size only (X-Gemmec-Shard-Size)
//	DELETE /internal/shard/{key}/{gen}/{idx}   drop one shard generation
//	DELETE /internal/object/{key}              drop all shards + meta replica
//	PUT    /internal/meta/{key}                replace the meta replica
//	GET    /internal/meta/{key}                fetch the meta replica
//	GET    /internal/meta                      list replica keys, one per line
//	GET    /internal/ping                      liveness + secret agreement
//
// Every route requires the shared cluster secret in the
// X-Gemmec-Cluster-Key header (constant-time compare). An empty secret
// disables authentication — acceptable only on trusted networks and test
// rigs; cmd/ecserver warns loudly when cluster mode runs without one.
//
// The API is deliberately not gated by the gateway's admission control:
// shard transfers are cluster-internal traffic whose concurrency the
// gateways already bound (each in-flight client stream holds one
// admission slot and fans out at most k+r transfers), and shedding a
// repair read here would turn one overload into cluster-wide write
// amplification.
func NewPeerAPI(ps *PeerStore, secret string, logf Logf) http.Handler {
	api := &peerAPI{ps: ps, secret: []byte(secret), logf: logf}
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /internal/shard/{key}/{gen}/{idx}", api.auth(api.putShard))
	mux.HandleFunc("GET /internal/shard/{key}/{gen}/{idx}", api.auth(api.getShard))
	mux.HandleFunc("DELETE /internal/shard/{key}/{gen}/{idx}", api.auth(api.deleteShard))
	mux.HandleFunc("DELETE /internal/object/{key}", api.auth(api.deleteObject))
	mux.HandleFunc("PUT /internal/meta/{key}", api.auth(api.putMeta))
	mux.HandleFunc("GET /internal/meta/{key}", api.auth(api.getMeta))
	mux.HandleFunc("GET /internal/meta", api.auth(api.listMeta))
	mux.HandleFunc("GET /internal/ping", api.auth(api.ping))
	return mux
}

type peerAPI struct {
	ps     *PeerStore
	secret []byte
	logf   Logf
}

// auth wraps a peer route with the cluster-secret check. The compare is
// constant-time so the secret cannot be probed byte by byte.
func (a *peerAPI) auth(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if len(a.secret) > 0 {
			got := []byte(r.Header.Get(peer.SecretHeader))
			if subtle.ConstantTimeCompare(got, a.secret) != 1 {
				http.Error(w, "cluster secret mismatch", http.StatusForbidden)
				return
			}
		}
		fn(w, r)
	}
}

// remoteSpan times the peer-side work of one internal request and, when
// the caller propagated a trace (obs.TraceHeader present), returns it in
// the response's TraceSpansHeader so the gateway merges it into the
// parent trace as this member's child span. Usage:
//
//	done := remoteSpan(w, r, "shard.write")
//	err := ...the store call...
//	done(err)
//
// done must run before the status or body is written — response headers
// are immutable after that.
func remoteSpan(w http.ResponseWriter, r *http.Request, name string) func(err error) {
	if r.Header.Get(obs.TraceHeader) == "" {
		return func(error) {}
	}
	start := time.Now()
	return func(err error) {
		w.Header().Set(obs.TraceSpansHeader,
			obs.EncodeRemoteSpan(name, start, time.Since(start), err != nil))
	}
}

// shardParams parses the {key}/{gen}/{idx} path values; a false return
// means the response is already written.
func (a *peerAPI) shardParams(w http.ResponseWriter, r *http.Request) (string, uint64, int, bool) {
	key := r.PathValue("key")
	gen, err := strconv.ParseUint(r.PathValue("gen"), 10, 64)
	if err != nil {
		http.Error(w, "bad generation", http.StatusBadRequest)
		return "", 0, 0, false
	}
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil {
		http.Error(w, "bad shard index", http.StatusBadRequest)
		return "", 0, 0, false
	}
	return key, gen, idx, true
}

// fail maps peer-store errors onto the internal API's status codes.
func (a *peerAPI) fail(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, peer.ErrShardNotFound), errors.Is(err, peer.ErrMetaNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, peer.ErrShardExists):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, ErrBadObjectName):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		a.logf.printf("ecserver: peer api %s %s: %v", r.Method, r.URL.Path, err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (a *peerAPI) putShard(w http.ResponseWriter, r *http.Request) {
	key, gen, idx, ok := a.shardParams(w, r)
	if !ok {
		return
	}
	done := remoteSpan(w, r, "shard.write")
	var err error
	if r.URL.RawQuery == "replace=1" {
		_, err = a.ps.ReplaceShard(key, gen, idx, r.Body)
	} else {
		_, err = a.ps.PutShard(key, gen, idx, r.Body)
	}
	done(err)
	if err != nil {
		// A torn upload (body error) aborted atomically; the sender is
		// likely gone, but answer truthfully for the ones still listening.
		a.fail(w, r, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (a *peerAPI) getShard(w http.ResponseWriter, r *http.Request) {
	key, gen, idx, ok := a.shardParams(w, r)
	if !ok {
		return
	}
	if r.Method == http.MethodHead {
		done := remoteSpan(w, r, "shard.stat")
		size, err := a.ps.StatShard(key, gen, idx)
		done(err)
		if err != nil {
			a.fail(w, r, err)
			return
		}
		w.Header().Set("X-Gemmec-Shard-Size", strconv.FormatInt(size, 10))
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		return
	}
	// A Range header narrows the transfer to the requested shard window —
	// the wire behind ranged object reads, where a gateway fetches only
	// the stripes covering the client's byte range. The client sends only
	// well-formed bytes=a-b ranges and fails any answer but a 206; an
	// unparseable Range gets the full shard, as HTTP prescribes.
	if off, length, ok := parseRangeHeader(r.Header.Get("Range")); ok && r.Method != http.MethodHead {
		a.getShardRange(w, r, key, gen, idx, off, length)
		return
	}
	// The span covers locating and opening the shard; the body copy
	// streams after headers are flushed, so it cannot be in the span —
	// the client side's peer.get_shard span carries the transfer time.
	done := remoteSpan(w, r, "shard.read")
	body, size, err := a.ps.GetShard(key, gen, idx)
	done(err)
	if err != nil {
		a.fail(w, r, err)
		return
	}
	defer body.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	sendShard(w, body)
}

// sendShard writes a GetShard body as the response. net/http's ReadFrom
// hands the bare *os.File under it to the connection's sendfile, so the
// bytes never pass through user space; io.Copy would not, because
// (*os.File).WriteTo wraps the file before the response sees it.
func sendShard(w http.ResponseWriter, body io.Reader) {
	rf, ok := w.(io.ReaderFrom)
	if h, held := body.(*heldFile); ok && held {
		rf.ReadFrom(h.File) //nolint:errcheck // receiver gone; nothing to do
		return
	}
	io.Copy(w, body) //nolint:errcheck // receiver gone; nothing to do
}

// getShardRange serves one shard window as a 206. The suffix (off == -1)
// and open-ended (length == -1) range forms are resolved against the
// shard's size; windows beyond the shard are clamped to what exists —
// the peer API's caller verifies lengths against the manifest, so a
// short answer is its signal, not an error here.
func (a *peerAPI) getShardRange(w http.ResponseWriter, r *http.Request, key string, gen uint64, idx int, off, length int64) {
	done := remoteSpan(w, r, "shard.read")
	size, err := a.ps.StatShard(key, gen, idx)
	if err != nil {
		done(err)
		a.fail(w, r, err)
		return
	}
	if off < 0 { // suffix form: final length bytes
		off = size - length
		if off < 0 {
			off = 0
		}
		length = size - off
	}
	if length < 0 || length > size-off {
		length = size - off
		if length < 0 {
			length = 0
		}
	}
	body, n, err := a.ps.GetShardRange(key, gen, idx, off, length)
	done(err)
	if err != nil {
		a.fail(w, r, err)
		return
	}
	defer body.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	if n > 0 {
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, size))
	}
	w.WriteHeader(http.StatusPartialContent)
	io.Copy(w, body) //nolint:errcheck // receiver gone; nothing to do
}

func (a *peerAPI) deleteShard(w http.ResponseWriter, r *http.Request) {
	key, gen, idx, ok := a.shardParams(w, r)
	if !ok {
		return
	}
	if err := a.ps.DeleteShard(key, gen, idx); err != nil {
		a.fail(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *peerAPI) deleteObject(w http.ResponseWriter, r *http.Request) {
	if err := a.ps.DeleteObject(r.PathValue("key")); err != nil {
		a.fail(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *peerAPI) putMeta(w http.ResponseWriter, r *http.Request) {
	// Metadata documents are small JSON blobs; 16 MiB is far past any real
	// manifest and stops a rogue client from filling the disk through this
	// unmetered route.
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	done := remoteSpan(w, r, "meta.put")
	perr := a.ps.PutMeta(r.PathValue("key"), b)
	done(perr)
	if perr != nil {
		a.fail(w, r, perr)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (a *peerAPI) getMeta(w http.ResponseWriter, r *http.Request) {
	b, err := a.ps.GetMeta(r.PathValue("key"))
	if err != nil {
		a.fail(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b) //nolint:errcheck // receiver gone; nothing to do
}

func (a *peerAPI) listMeta(w http.ResponseWriter, r *http.Request) {
	keys, err := a.ps.ListMeta()
	if err != nil {
		a.fail(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, strings.Join(keys, "\n")) //nolint:errcheck // receiver gone
}

func (a *peerAPI) ping(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok") //nolint:errcheck // receiver gone
}
