package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"gemmec/internal/obs"
)

// findTrace returns the newest retained trace for op, or fails the test.
func findTrace(t *testing.T, rec *obs.Recorder, op string) *obs.TraceRecord {
	t.Helper()
	for _, tr := range rec.Snapshot() {
		if tr.Op == op {
			return tr
		}
	}
	t.Fatalf("no retained trace for op %q", op)
	return nil
}

// spanNames collects the set of span names in a trace.
func spanNames(tr *obs.TraceRecord) map[string]int {
	names := map[string]int{}
	for _, s := range tr.Spans {
		names[s.Name]++
	}
	return names
}

// TestClusterTracePropagation is the tentpole's acceptance drill: a
// quorum PUT and a degraded GET through a real 3-peer networked cluster
// must land in the flight recorder as full waterfalls — admission, the
// encode/decode stream, and per-peer shard transfers with remote child
// spans merged back over X-Gemmec-Trace — so the slow member of a quorum
// write is identifiable from /tracez alone.
func TestClusterTracePropagation(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderConfig{Capacity: 32, SampleEvery: 1})
	c := newHTTPCluster(t, 3, 2, 1, 1, 1024, Config{Logf: t.Logf, Tracer: rec})

	want := randBytes(7, 100_000)
	c.put(t, "obj", want)

	put := findTrace(t, rec, "put")
	if put.Status != http.StatusCreated || put.Kept != "sampled" {
		t.Fatalf("put trace status=%d kept=%q, want 201/sampled", put.Status, put.Kept)
	}
	names := spanNames(put)
	for _, n := range []string{"admit", "meta.read", "gw.encode", "shardfile.encode", "meta.commit", "peer.put_shard"} {
		if names[n] == 0 {
			t.Fatalf("put trace missing %q span; have %v", n, names)
		}
	}
	// Member 0 is the gateway's local transport; members 1 and 2 are real
	// HTTP peers, so their shard writes must come back as remote child
	// spans attributed to distinct members — the straggler-attribution
	// property.
	remoteWriters := map[int]bool{}
	for _, s := range put.Spans {
		if s.Remote && s.Name == "shard.write" {
			remoteWriters[s.Member] = true
			if s.Parent < 0 || put.Spans[s.Parent].Name != "peer.put_shard" {
				t.Fatalf("remote shard.write not nested under its peer.put_shard: %+v", s)
			}
		}
	}
	if len(remoteWriters) < 2 {
		t.Fatalf("remote shard.write spans from %d members, want 2 (have spans %v)", len(remoteWriters), names)
	}

	// Degraded read: wipe one HTTP member's shards; the GET reconstructs
	// and its trace shows the decode plus the per-peer fetches.
	if err := c.stores[2].WipeShards(); err != nil {
		t.Fatal(err)
	}
	got, resp := c.get(t, "obj")
	if string(got) != string(want) {
		t.Fatalf("degraded read returned %d bytes, want %d", len(got), len(want))
	}
	if resp.Header.Get("X-Gemmec-Degraded") != "true" {
		t.Fatalf("read after shard wipe not degraded")
	}
	if resp.Header.Get(obs.TraceHeader) == "" {
		t.Fatalf("sampled GET response missing %s header", obs.TraceHeader)
	}

	get := findTrace(t, rec, "get")
	gnames := spanNames(get)
	for _, n := range []string{"admit", "meta.read", "gw.open", "shardfile.decode", "peer.get_shard"} {
		if gnames[n] == 0 {
			t.Fatalf("get trace missing %q span; have %v", n, gnames)
		}
	}

	// /tracez on the data-plane handler: the list view joins on the
	// response's request ID and the detail view renders the waterfall.
	reqID := resp.Header.Get("X-Gemmec-Request-Id")
	hres, err := http.Get(c.api.URL + "/tracez?req=" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != 200 {
		b, _ := io.ReadAll(hres.Body)
		t.Fatalf("/tracez?req=%s: %s: %s", reqID, hres.Status, b)
	}
	var detail struct {
		Trace     *obs.TraceRecord `json:"trace"`
		Waterfall []string         `json:"waterfall"`
	}
	if err := json.NewDecoder(hres.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	if detail.Trace == nil || detail.Trace.ID != get.ID {
		t.Fatalf("/tracez?req= returned trace %+v, want id %s", detail.Trace, get.ID)
	}
	wf := strings.Join(detail.Waterfall, "\n")
	for _, want := range []string{"shardfile.decode", "peer.get_shard", "m1"} {
		if !strings.Contains(wf, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, wf)
		}
	}

	lres, err := http.Get(c.api.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer lres.Body.Close()
	var list struct {
		Started  uint64 `json:"traces_started"`
		Retained uint64 `json:"traces_retained"`
		Traces   []struct {
			ID string `json:"id"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(lres.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Started < 2 || list.Retained < 2 || len(list.Traces) < 2 {
		t.Fatalf("/tracez list: started=%d retained=%d traces=%d, want >= 2 each",
			list.Started, list.Retained, len(list.Traces))
	}
}

// TestClusterPeerMetrics: each HTTP peer client feeds member-labeled
// request/latency/down-transition series through its Observer, visible
// on /metricsz, and StatusSnapshot reports the same per-peer tallies.
// The dead member must still read as down when the status is taken, so
// its cooldown outlasts the test.
func TestClusterPeerMetrics(t *testing.T) {
	c := newHTTPClusterCooldown(t, time.Minute, 3, 2, 1, 1, 1024, Config{Logf: t.Logf})
	m := NewMetrics(nil)
	c.gw.SetMetrics(m)
	c.put(t, "obj", randBytes(9, 50_000))

	scrapeBody := func() string {
		rw := httptest.NewRecorder()
		m.Registry.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/metricsz", nil))
		return rw.Body.String()
	}
	body := scrapeBody()
	for _, member := range []string{"1", "2"} {
		re := regexp.MustCompile(`gemmec_peer_requests_total\{[^}]*member="` + member + `"[^}]*op="put_shard"[^}]*\} [1-9]`)
		if !re.MatchString(body) {
			t.Fatalf("no put_shard request series for member %s in scrape:\n%s", member, body)
		}
	}
	if !strings.Contains(body, `gemmec_peer_request_seconds_bucket{member="1",le=`) {
		t.Fatalf("peer latency histogram missing from scrape")
	}

	// Kill member 2's process and read: the failed fetch records a
	// transport-failure sample (code "0") and a healthy→down transition.
	c.peers[2].Close()
	if _, resp := c.get(t, "obj"); resp.Header.Get("X-Gemmec-Degraded") != "true" {
		t.Fatalf("read with a dead peer not degraded")
	}
	body = scrapeBody()
	if !regexp.MustCompile(`gemmec_peer_requests_total\{code="0",member="2"[^}]*\} [1-9]`).MatchString(body) {
		t.Fatalf("transport failure not recorded with code 0:\n%s", body)
	}
	if !regexp.MustCompile(`gemmec_peer_down_total\{member="2"\} [1-9]`).MatchString(body) {
		t.Fatalf("down transition for member 2 not recorded:\n%s", body)
	}

	gst, ok := c.gw.StatusSnapshot().(Stats)
	if !ok {
		t.Fatalf("StatusSnapshot: %T", c.gw.StatusSnapshot())
	}
	if len(gst.Peers) != 2 {
		t.Fatalf("status reports %d peer rows, want 2 (HTTP members only): %+v", len(gst.Peers), gst.Peers)
	}
	for _, p := range gst.Peers {
		if p.Requests == 0 {
			t.Fatalf("peer %d shows no requests: %+v", p.Member, p)
		}
	}
	var down *PeerStatus
	for i := range gst.Peers {
		if gst.Peers[i].Member == 2 {
			down = &gst.Peers[i]
		}
	}
	if down == nil || down.Healthy || down.DownTransitions == 0 || down.Failures == 0 {
		t.Fatalf("dead member 2 not reflected in status: %+v", down)
	}
}

// TestSingleNodeTraceWaterfall covers the local Store path: the encode
// and decode stream spans (with stall children when stalls occurred) are
// recorded without any cluster machinery, and unsampled requests leave
// no trace behind.
func TestSingleNodeTraceWaterfall(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderConfig{Capacity: 8, SampleEvery: 1, Slow: time.Minute})
	store := newTestStore(t)
	ts := httptest.NewServer(NewHandler(store, Config{Logf: t.Logf, Tracer: rec}))
	defer ts.Close()

	body := randBytes(3, 200_000)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/o/obj", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %s", presp.Status)
	}
	gresp, err := http.Get(ts.URL + "/o/obj")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET: %s", gresp.Status)
	}

	put := findTrace(t, rec, "put")
	pn := spanNames(put)
	for _, n := range []string{"admit", "store.lock", "shardfile.encode", "meta.commit"} {
		if pn[n] == 0 {
			t.Fatalf("single-node put trace missing %q; have %v", n, pn)
		}
	}
	get := findTrace(t, rec, "get")
	gn := spanNames(get)
	for _, n := range []string{"admit", "store.lock", "shardfile.open", "shardfile.decode"} {
		if gn[n] == 0 {
			t.Fatalf("single-node get trace missing %q; have %v", n, gn)
		}
	}
	// The decode span carries the stripe count as its annotation.
	for _, s := range get.Spans {
		if s.Name == "shardfile.decode" && s.Arg <= 0 {
			t.Fatalf("shardfile.decode span has no stripe-count arg: %+v", s)
		}
	}
}
