package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gemmec/internal/obs"
)

// newMetricsServer builds a store + handler pair with a fresh metrics
// bundle wired through both; cfg supplies any other handler settings.
func newMetricsServer(t *testing.T, cfg Config) (*Store, *Metrics, *httptest.Server) {
	t.Helper()
	s := newTestStore(t)
	m := NewMetrics(nil)
	s.SetMetrics(m)
	cfg.Logf, cfg.Metrics = t.Logf, m
	ts := httptest.NewServer(NewHandler(s, cfg))
	t.Cleanup(ts.Close)
	return s, m, ts
}

// scrape fetches /metricsz and parses every sample line into a
// name{labels} -> value map.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricsz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sampleLine is the Prometheus text-format sample grammar this exposition
// uses: metric name, optional {labels}, a space, a value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="(\\.|[^"\\])*"(,[a-zA-Z0-9_]+="(\\.|[^"\\])*")*\})? [0-9eE+.\-]+$|^\+Inf$`)

// Every line of /metricsz must be a comment or a well-formed sample, and
// the families the acceptance criteria name must all be present.
func TestMetricszExposition(t *testing.T) {
	s, _, ts := newMetricsServer(t, Config{})
	client := ts.Client()

	// PUT, clean GET, degraded GET (silent in-place rot -> mid-stream CRC
	// demotion), scrub.
	data := randBytes(41, 6*tk*tunit+31)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/o/m.bin", bytes.NewReader(data))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	doGet := func() {
		t.Helper()
		resp, err := client.Get(ts.URL + "/o/m.bin")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Equal(body, data) {
			t.Fatalf("GET mismatch (err=%v)", err)
		}
	}
	doGet()
	meta, err := s.Stat("m.bin")
	if err != nil {
		t.Fatal(err)
	}
	corruptFile(t, s.shardPaths(objKey("m.bin"), meta)[1])
	doGet() // demoted mid-stream, reconstructed
	if resp, err := client.Post(ts.URL+"/scrub", "", nil); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Raw-format check: every line parses.
	raw, err := client.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}

	samples := scrape(t, ts)
	for sample, want := range map[string]float64{
		`gemmec_http_requests_total{code="201",op="put"}`:             1,
		`gemmec_http_requests_total{code="200",op="get"}`:             2,
		`gemmec_degraded_gets_total`:                                  1,
		`gemmec_demotions_total{cause="crc"}`:                         1,
		`gemmec_demotions_total{cause="truncation"}`:                  0,
		`gemmec_scrub_cycles_total`:                                   1,
		`gemmec_objects`:                                              1,
		`gemmec_http_get_ttfb_seconds_count`:                          2,
		`gemmec_pipeline_stall_seconds_count{op="put",stage="read"}`:  1,
		`gemmec_pipeline_stall_seconds_count{op="get",stage="write"}`: 2,
	} {
		if got, ok := samples[sample]; !ok {
			t.Errorf("missing sample %s", sample)
		} else if got != want {
			t.Errorf("%s = %v, want %v", sample, got, want)
		}
	}
	// Present-but-environment-dependent families.
	for _, name := range []string{
		"gemmec_decoder_cache_hits_total",
		"gemmec_decoder_cache_misses_total",
		"gemmec_decoder_cache_evictions_total",
		"gemmec_scrub_cycle_duration_seconds_count",
		"gemmec_scrub_last_completed_timestamp_seconds",
		"gemmec_bytes_in_total",
		"gemmec_bytes_out_total",
		"go_goroutines",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("missing sample %s", name)
		}
	}
	// The scrub heals the corrupt shard; healed total must reflect it.
	if samples["gemmec_scrub_shards_healed_total"] < 1 {
		t.Errorf("gemmec_scrub_shards_healed_total = %v, want >= 1",
			samples["gemmec_scrub_shards_healed_total"])
	}
	if samples["gemmec_bytes_in_total"] != float64(len(data)) {
		t.Errorf("gemmec_bytes_in_total = %v, want %d", samples["gemmec_bytes_in_total"], len(data))
	}
	if samples["gemmec_bytes_out_total"] != float64(2*len(data)) {
		t.Errorf("gemmec_bytes_out_total = %v, want %d", samples["gemmec_bytes_out_total"], 2*len(data))
	}
}

// Counters must never decrease across scrapes, whatever traffic runs in
// between.
func TestMetricszMonotonic(t *testing.T) {
	s, _, ts := newMetricsServer(t, Config{})
	client := ts.Client()

	isCounter := func(name string) bool { return strings.Contains(name, "_total") || strings.HasSuffix(name, "_count") }
	before := scrape(t, ts)

	data := randBytes(43, 3*tk*tunit)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/o/mono.bin", bytes.NewReader(data))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = client.Get(ts.URL + "/o/mono.bin")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	meta, err := s.Stat("mono.bin")
	if err != nil {
		t.Fatal(err)
	}
	corruptFile(t, s.shardPaths(objKey("mono.bin"), meta)[0])
	resp, err = client.Get(ts.URL + "/o/mono.bin")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.ScrubAll(context.Background())

	after := scrape(t, ts)
	for name, v := range before {
		if !isCounter(name) {
			continue
		}
		if after[name] < v {
			t.Errorf("counter %s went backwards: %v -> %v", name, v, after[name])
		}
	}
	if after[`gemmec_http_requests_total{code="200",op="get"}`] <
		before[`gemmec_http_requests_total{code="200",op="get"}`]+2 {
		t.Error("GET counter did not advance by the served requests")
	}
}

// Scrapes racing PUT/GET traffic (run under -race via make race-hot).
func TestMetricszConcurrentScrape(t *testing.T) {
	s, _, ts := newMetricsServer(t, Config{})
	client := ts.Client()
	data := randBytes(47, 2*tk*tunit)
	mustPut(t, s, "race.bin", data)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				if j%3 == 0 {
					req, _ := http.NewRequest(http.MethodPut,
						fmt.Sprintf("%s/o/race-%d.bin", ts.URL, n), bytes.NewReader(data))
					resp, err := client.Do(req)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				} else {
					resp, err := client.Get(ts.URL + "/o/race.bin")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(i)
	}
	for i := 0; i < 25; i++ {
		scrape(t, ts)
	}
	close(stop)
	wg.Wait()

	samples := scrape(t, ts)
	if samples[`gemmec_http_requests_total{code="200",op="get"}`] < 1 {
		t.Error("no GETs recorded during concurrent scrape")
	}
	if samples["gemmec_http_requests_in_flight"] != 0 {
		t.Errorf("in-flight gauge = %v after traffic drained, want 0",
			samples["gemmec_http_requests_in_flight"])
	}
}

// /healthz: bare 200 without a scrubber; JSON with last-scrub timestamp
// when one is wired; 503 once the loop misses 3x its interval.
func TestHealthz(t *testing.T) {
	s, m, ts := newMetricsServer(t, Config{})
	_ = m
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-scrubber /healthz = %d, want 200", resp.StatusCode)
	}

	sc := StartScrubber(s, 50*time.Millisecond, t.Logf)
	defer sc.Stop()
	ts2 := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf, Scrubber: sc}))
	defer ts2.Close()

	get := func() (int, healthResponse) {
		t.Helper()
		resp, err := ts2.Client().Get(ts2.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr healthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr
	}

	code, hr := get()
	if code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("live /healthz = %d %q, want 200 ok", code, hr.Status)
	}
	if hr.LastScrubCompleted == "" {
		t.Error("live /healthz missing last_scrub_completed")
	}

	// Wedge the loop's record: pretend the last sweep finished 10
	// intervals ago. The probe must flip to 503.
	sc.lastDone.Store(time.Now().Add(-10 * sc.Interval()).UnixNano())
	code, hr = get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("wedged /healthz = %d, want 503", code)
	}
	if !strings.Contains(hr.Status, "wedged") {
		t.Errorf("wedged /healthz status = %q", hr.Status)
	}

	// A completed sweep heals the probe.
	sc.Kick()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ = get()
		if code == http.StatusOK || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code != http.StatusOK {
		t.Fatalf("post-sweep /healthz = %d, want 200", code)
	}
}

// The access log emits one parseable JSON line per request with the
// schema README documents, and the response carries the matching
// X-Gemmec-Request-Id.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	safe := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s, _, ts := newMetricsServer(t,
		Config{AccessLog: obs.NewLogger(safe), SlowRequestThreshold: time.Nanosecond})
	client := ts.Client()

	data := randBytes(51, 2*tk*tunit+7)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/o/logged.bin", bytes.NewReader(data))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	putID := resp.Header.Get("X-Gemmec-Request-Id")
	resp.Body.Close()
	if putID == "" {
		t.Fatal("PUT response missing X-Gemmec-Request-Id")
	}
	meta, err := s.Stat("logged.bin")
	if err != nil {
		t.Fatal(err)
	}
	corruptFile(t, s.shardPaths(objKey("logged.bin"), meta)[2])
	resp, err = client.Get(ts.URL + "/o/logged.bin")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mu.Lock()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var put, get map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &put); err != nil {
		t.Fatalf("PUT line %q: %v", lines[0], err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &get); err != nil {
		t.Fatalf("GET line %q: %v", lines[1], err)
	}
	if put["op"] != "put" || put["status"] != float64(201) || put["object"] != "logged.bin" ||
		put["id"] != putID || put["object_bytes"] != float64(len(data)) {
		t.Errorf("unexpected PUT log line: %v", put)
	}
	if get["op"] != "get" || get["status"] != float64(200) ||
		get["degraded"] != true || get["demoted"] != float64(1) {
		t.Errorf("unexpected GET log line: %v", get)
	}
	if _, ok := get["ttfb_ms"]; !ok {
		t.Errorf("GET log line missing ttfb_ms: %v", get)
	}

	// Slow-request counter fired (threshold 1ns).
	samples := scrape(t, ts)
	if samples["gemmec_http_slow_requests_total"] < 2 {
		t.Errorf("slow request counter = %v, want >= 2", samples["gemmec_http_slow_requests_total"])
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// StatAll returns every object's metadata in one pass, sorted, skipping
// broken entries; /objects is built on it.
func TestStatAll(t *testing.T) {
	s, _, ts := newMetricsServer(t, Config{})
	for _, name := range []string{"c.bin", "a.bin", "b.bin"} {
		mustPut(t, s, name, randBytes(int64(len(name)), tk*tunit))
	}
	metas, err := s.StatAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 {
		t.Fatalf("StatAll returned %d objects, want 3", len(metas))
	}
	for i, want := range []string{"a.bin", "b.bin", "c.bin"} {
		if metas[i].Name != want {
			t.Errorf("metas[%d].Name = %q, want %q (sorted)", i, metas[i].Name, want)
		}
	}

	// A metadata file that no longer parses is skipped, not fatal.
	if err := os.WriteFile(s.metaPath(objKey("broken.bin")), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	metas, err = s.StatAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 {
		t.Fatalf("StatAll with broken meta returned %d objects, want 3", len(metas))
	}

	resp, err := ts.Client().Get(ts.URL + "/objects")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []listEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Name != "a.bin" {
		t.Fatalf("/objects = %v", entries)
	}
	samples := scrape(t, ts)
	if samples[`gemmec_http_request_duration_seconds_count{op="list"}`] != 1 {
		t.Error("list latency not recorded in request duration histogram")
	}
}
