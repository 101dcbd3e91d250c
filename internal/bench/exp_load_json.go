package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gemmec/internal/server"
)

func init() {
	register(Experiment{
		ID:    "load-json",
		Paper: "§8 integration under heavy traffic: shared scheduler, admission control, packed small objects",
		Title: "ecserver daemon: open-loop load — sustained RPS, p99/p999, shed count, goroutine bound",
		Run:   runLoadJSON,
	})
}

// loadJSONReport is the machine-readable result emitted to Config.JSONPath
// (BENCH_load.json): the serving path under sustained mixed traffic plus a
// 1k-client burst, the offline counterpart of watching the scheduler and
// admission metrics during a production incident.
type loadJSONReport struct {
	Experiment       string  `json:"experiment"`
	K                int     `json:"k"`
	R                int     `json:"r"`
	UnitSize         int     `json:"unit_size"`
	SmallMaxBytes    int     `json:"small_max_bytes"`
	LargeObjectBytes int     `json:"large_object_bytes"`
	DurationS        float64 `json:"duration_s"`
	OfferedRPS       float64 `json:"offered_rps"`
	AchievedRPS      float64 `json:"achieved_rps"`
	Completed        int     `json:"completed"`
	ClientShed       int     `json:"client_shed_429"`
	// Small (packed) GET latency, measured open-loop from the scheduled
	// arrival time — queueing delay included, no coordinated omission.
	SmallGetP50Ms  float64 `json:"small_get_p50_ms"`
	SmallGetP99Ms  float64 `json:"small_get_p99_ms"`
	SmallGetP999Ms float64 `json:"small_get_p999_ms"`
	LargeGetP50Ms  float64 `json:"large_get_p50_ms"`
	LargeGetP99Ms  float64 `json:"large_get_p99_ms"`
	PutP50Ms       float64 `json:"put_p50_ms"`
	PutP99Ms       float64 `json:"put_p99_ms"`
	// Burst: BurstClients concurrent small GETs fired at once against the
	// MaxStreams admission bound.
	BurstClients int     `json:"burst_clients"`
	BurstShed    int     `json:"burst_shed_429"`
	BurstP50Ms   float64 `json:"burst_p50_ms"`
	BurstP99Ms   float64 `json:"burst_p99_ms"`
	BurstP999Ms  float64 `json:"burst_p999_ms"`
	// Server-side counters after the run.
	RequestsShed int64 `json:"requests_shed"`
	SlabPuts     int64 `json:"slab_puts"`
	SlabFlushes  int64 `json:"slab_flushes"`
	// GoroutinePeak is the whole process under load. The split below
	// attributes it: ClientGoroutinePeak is the in-process load generator
	// (open-loop/burst workers plus their HTTP transport read/write loops,
	// two per open connection, counted client-side at dial time);
	// ServerGoroutinePeak is everything else — the fixed kernel worker
	// pool (SchedWorkers) plus per-connection serving machinery (one
	// net/http conn handler and one pipeline in-order writer per in-flight
	// stream), which scales with concurrent connections, not with stripes.
	// Before the split the headline number lumped the load generator in
	// with the server, making a single-digit worker pool look like
	// thousands of serving goroutines.
	GoroutinePeak       int `json:"goroutine_peak"`
	ServerGoroutinePeak int `json:"server_goroutine_peak"`
	ClientGoroutinePeak int `json:"client_goroutine_peak"`
	SchedWorkers        int `json:"sched_workers"`
	SchedQueuePeak      int `json:"sched_queue_peak"`
}

// countedConn decrements its counter exactly once on Close, keeping the
// client-side connection count honest against double closes.
type countedConn struct {
	net.Conn
	n    *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.n.Add(-1) })
	return c.Conn.Close()
}

// runLoadJSON drives the daemon with an open-loop mixed workload — small
// (slab-packed) GETs, large GETs, small PUTs — at a fixed arrival rate,
// then slams it with a 1k-client concurrent burst. Open loop means
// arrivals do not wait for completions: latency is measured from each
// request's scheduled arrival, so a stalled server shows up as a fat tail
// instead of silently lowering the offered rate. Admission control is
// live (MaxStreams), so overload surfaces as counted 429s, not collapse.
func runLoadJSON(w io.Writer, cfg Config) error {
	const (
		k, r         = 4, 2
		nodes        = k + r
		smallCount   = 64
		smallMax     = 2048
		largeStripes = 8
		maxStreams   = 256
	)
	burst := 1024
	if cfg.MinTime < 10*time.Millisecond {
		burst = 64 // tiny smoke runs
	}
	// Arrival count scales with MinTime so tiny/quick runs stay fast; the
	// rate itself is calibrated against the machine below.
	arrivals := int(cfg.MinTime/time.Millisecond) * 20
	if arrivals < 32 {
		arrivals = 32
	}
	if arrivals > 4000 {
		arrivals = 4000
	}

	root, err := os.MkdirTemp("", "gemmec-bench-load")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	store, err := server.Open(server.StoreConfig{
		Root: root, Nodes: nodes, K: k, R: r, UnitSize: cfg.UnitSize,
		MaxStreams:    maxStreams,
		SlabThreshold: 4096,
		SlabWindow:    500 * time.Microsecond,
	})
	if err != nil {
		return err
	}
	defer store.Close()
	metrics := server.NewMetrics(nil)
	store.SetMetrics(metrics)
	// Goroutine attribution: clientGo counts the load generator's worker
	// goroutines; openConns counts the client transport's live connections
	// (each costing it a read and a write loop), tracked on the client side
	// of the dial so a connection is attributed the moment its transport
	// goroutines exist — not when the server's accept loop gets to it.
	// Everything else sampled in the process is the serving stack.
	var clientGo, openConns atomic.Int64
	ts := httptest.NewServer(server.NewHandler(store, server.Config{Metrics: metrics}))
	defer ts.Close()
	dialer := &net.Dialer{}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        burst,
		MaxIdleConnsPerHost: burst,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			openConns.Add(1)
			return &countedConn{Conn: c, n: &openConns}, nil
		},
	}}
	// clientWorker wraps a load-generator goroutine body so the sampler can
	// subtract it from the process total.
	clientWorker := func(wg *sync.WaitGroup, fn func()) {
		wg.Add(1)
		clientGo.Add(1)
		go func() {
			defer clientGo.Add(-1)
			defer wg.Done()
			fn()
		}()
	}

	// Populate: smallCount packed objects (256..smallMax bytes) and one
	// large object per GET stream class.
	largeBytes := largeStripes * k * cfg.UnitSize
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, smallCount+1)
	for i := 0; i < smallCount; i++ {
		clientWorker(&wg, func() {
			size := 256 + (i*293)%(smallMax-256)
			data := RandomBytes(int64(i), size)
			name := fmt.Sprintf("small-%03d", i)
			if _, _, err := store.Put(ctx, name, bytes.NewReader(data), int64(len(data))); err != nil {
				errs <- fmt.Errorf("populate %s: %w", name, err)
			}
		})
	}
	wg.Wait()
	if _, _, err := store.Put(ctx, "large-0",
		bytes.NewReader(RandomBytes(cfg.Seed, largeBytes)), int64(largeBytes)); err != nil {
		return err
	}
	select {
	case err := <-errs:
		return err
	default:
	}

	get := func(name string) (int, error) {
		resp, err := client.Get(ts.URL + "/o/" + name)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	put := func(name string, data []byte) (int, error) {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/o/"+name, bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		req.ContentLength = int64(len(data))
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}

	// Calibrate the offered rate to the machine: open-loop percentiles are
	// only meaningful below saturation (above it, latency is just backlog
	// depth). Target ~50% utilization of the measured serial small-GET
	// service rate, scaled by available parallelism; the mixed workload's
	// large GETs eat the remaining headroom.
	calLats, err := Latencies(8, func() error {
		code, err := get("small-000")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("calibrate: status %d", code)
		}
		return err
	})
	if err != nil {
		return err
	}
	meanSmall := Percentile(calLats, 50)
	if meanSmall <= 0 {
		meanSmall = time.Millisecond
	}
	par := runtime.GOMAXPROCS(0)
	if par > 8 {
		par = 8
	}
	offeredRPS := 0.35 * float64(par) / meanSmall.Seconds()
	if offeredRPS > 800 {
		offeredRPS = 800
	}
	if offeredRPS < 20 {
		offeredRPS = 20
	}

	// Background samplers: goroutine counts (split server vs load
	// generator) and scheduler queue depth.
	goroutinePeak, serverPeak, clientPeak, queuePeak := runtime.NumGoroutine(), 0, 0, 0
	sampleStop := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		for {
			select {
			case <-sampleStop:
				return
			default:
			}
			total := runtime.NumGoroutine()
			clients := int(clientGo.Load() + 2*openConns.Load())
			if total > goroutinePeak {
				goroutinePeak = total
			}
			if clients > clientPeak {
				clientPeak = clients
			}
			if srv := total - clients; srv > serverPeak {
				serverPeak = srv
			}
			if d := store.Scheduler().QueueDepth(); d > queuePeak {
				queuePeak = d
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Open-loop phase: arrivals on a fixed schedule, one goroutine each,
	// latency measured from the SCHEDULED time so queueing counts.
	type sample struct {
		kind int // 0 small get, 1 large get, 2 small put
		lat  time.Duration
		code int
		err  error
	}
	interval := time.Duration(float64(time.Second) / offeredRPS)
	results := make(chan sample, arrivals)
	start := time.Now()
	var lg sync.WaitGroup
	for i := 0; i < arrivals; i++ {
		clientWorker(&lg, func() {
			when := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(when))
			var s sample
			switch i % 10 {
			case 0: // fresh small PUT, rides the slab path
				s.kind = 2
				size := 256 + (i*131)%(smallMax-256)
				s.code, s.err = put(fmt.Sprintf("load-%05d", i), RandomBytes(int64(i), size))
			case 1: // large streaming GET
				s.kind = 1
				s.code, s.err = get("large-0")
			default: // small packed GET
				s.kind = 0
				s.code, s.err = get(fmt.Sprintf("small-%03d", (i*7)%smallCount))
			}
			s.lat = time.Since(when)
			results <- s
		})
	}
	lg.Wait()
	elapsed := time.Since(start)
	close(results)

	var lats [3][]time.Duration
	completed, clientShed := 0, 0
	for s := range results {
		if s.err != nil {
			return fmt.Errorf("load: %w", s.err)
		}
		if s.code == http.StatusTooManyRequests {
			clientShed++
			continue
		}
		if s.code != http.StatusOK && s.code != http.StatusCreated {
			return fmt.Errorf("load: unexpected status %d", s.code)
		}
		completed++
		lats[s.kind] = append(lats[s.kind], s.lat)
	}
	for i := range lats {
		sort.Slice(lats[i], func(a, b int) bool { return lats[i][a] < lats[i][b] })
	}

	// Burst phase: burst concurrent small GETs at once, straight into the
	// admission bound. Survivors' percentiles plus the shed count.
	burstLats := make([]time.Duration, 0, burst)
	burstShed := 0
	var bm sync.Mutex
	var bg sync.WaitGroup
	gate := make(chan struct{})
	berrs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		clientWorker(&bg, func() {
			<-gate
			t0 := time.Now()
			code, err := get(fmt.Sprintf("small-%03d", i%smallCount))
			if err != nil {
				berrs <- err
				return
			}
			bm.Lock()
			defer bm.Unlock()
			if code == http.StatusTooManyRequests {
				burstShed++
			} else {
				burstLats = append(burstLats, time.Since(t0))
			}
		})
	}
	close(gate)
	bg.Wait()
	select {
	case err := <-berrs:
		return fmt.Errorf("burst: %w", err)
	default:
	}
	sort.Slice(burstLats, func(a, b int) bool { return burstLats[a] < burstLats[b] })

	close(sampleStop)
	<-sampleDone

	st := store.Stats()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rep := loadJSONReport{
		Experiment:          "load-json",
		K:                   k,
		R:                   r,
		UnitSize:            cfg.UnitSize,
		SmallMaxBytes:       smallMax,
		LargeObjectBytes:    largeBytes,
		DurationS:           elapsed.Seconds(),
		OfferedRPS:          offeredRPS,
		AchievedRPS:         float64(completed) / elapsed.Seconds(),
		Completed:           completed,
		ClientShed:          clientShed,
		SmallGetP50Ms:       ms(Percentile(lats[0], 50)),
		SmallGetP99Ms:       ms(Percentile(lats[0], 99)),
		SmallGetP999Ms:      ms(Percentile(lats[0], 99.9)),
		LargeGetP50Ms:       ms(Percentile(lats[1], 50)),
		LargeGetP99Ms:       ms(Percentile(lats[1], 99)),
		PutP50Ms:            ms(Percentile(lats[2], 50)),
		PutP99Ms:            ms(Percentile(lats[2], 99)),
		BurstClients:        burst,
		BurstShed:           burstShed,
		BurstP50Ms:          ms(Percentile(burstLats, 50)),
		BurstP99Ms:          ms(Percentile(burstLats, 99)),
		BurstP999Ms:         ms(Percentile(burstLats, 99.9)),
		RequestsShed:        st.RequestsShed,
		SlabPuts:            st.SlabPuts,
		SlabFlushes:         st.SlabFlushes,
		GoroutinePeak:       goroutinePeak,
		ServerGoroutinePeak: serverPeak,
		ClientGoroutinePeak: clientPeak,
		SchedWorkers:        st.StreamWorkers,
		SchedQueuePeak:      queuePeak,
	}

	t := NewTable(fmt.Sprintf(
		"E-LOAD: open-loop mixed traffic (k=%d, r=%d, %.0f req/s offered, %s, burst %d clients)",
		k, r, offeredRPS, elapsed.Round(time.Millisecond), burst),
		"metric", "value")
	t.AddF("achieved RPS", fmt.Sprintf("%.0f", rep.AchievedRPS))
	t.AddF("small GET p50/p99/p999", fmt.Sprintf("%.2f / %.2f / %.2f ms",
		rep.SmallGetP50Ms, rep.SmallGetP99Ms, rep.SmallGetP999Ms))
	t.AddF("large GET p50/p99", fmt.Sprintf("%.2f / %.2f ms", rep.LargeGetP50Ms, rep.LargeGetP99Ms))
	t.AddF("small PUT p50/p99 (packed)", fmt.Sprintf("%.2f / %.2f ms", rep.PutP50Ms, rep.PutP99Ms))
	t.AddF(fmt.Sprintf("burst p50/p99/p999 (%d clients)", burst),
		fmt.Sprintf("%.2f / %.2f / %.2f ms", rep.BurstP50Ms, rep.BurstP99Ms, rep.BurstP999Ms))
	t.AddF("requests shed (429)", fmt.Sprintf("%d server / %d burst-observed", rep.RequestsShed, rep.BurstShed))
	t.AddF("slab puts / flushes", fmt.Sprintf("%d / %d", rep.SlabPuts, rep.SlabFlushes))
	t.AddF("goroutine peak", fmt.Sprintf("%d total (server %d, load gen %d; pool %d workers, queue peak %d)",
		rep.GoroutinePeak, rep.ServerGoroutinePeak, rep.ClientGoroutinePeak,
		rep.SchedWorkers, rep.SchedQueuePeak))
	if err := t.Fprint(w); err != nil {
		return err
	}

	if cfg.JSONPath != "" {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.JSONPath, append(enc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.JSONPath)
	}
	return nil
}
