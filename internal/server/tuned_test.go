package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gemmec"
	"gemmec/internal/shardfile"
	"gemmec/internal/tuned"
)

// TestServerSteadyStateAllocs: the full server PUT and GET paths —
// handler-adjacent Store methods through shardfile through the pipeline —
// hold zero per-stripe allocations at steady state. Per-request costs
// (file opens, metadata commit) are constant, so the 4-vs-64-stripe delta
// isolates the per-stripe loop exactly like the raw-stream guard.
func TestServerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	s := newTestStore(t)
	stripeBytes := tk * tunit
	small := randBytes(11, 4*stripeBytes)
	large := randBytes(12, 64*stripeBytes)
	ctx := context.Background()

	putRun := func(name string, payload []byte) float64 {
		rd := bytes.NewReader(nil)
		return testing.AllocsPerRun(20, func() {
			rd.Reset(payload)
			if _, _, err := s.Put(ctx, name, rd, int64(len(payload))); err != nil {
				t.Fatal(err)
			}
		})
	}
	putRun("alloc-small.bin", small) // warm pools, slot closures, meta cache
	putRun("alloc-large.bin", large)
	p4, p64 := putRun("alloc-small.bin", small), putRun("alloc-large.bin", large)
	if perStripe := (p64 - p4) / 60; perStripe > 0.05 {
		t.Errorf("steady-state PUT allocates %.2f/stripe (4 stripes: %.0f allocs, 64 stripes: %.0f)",
			perStripe, p4, p64)
	}

	getRun := func(name string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := s.Get(ctx, name, discardWriter{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	getRun("alloc-small.bin")
	getRun("alloc-large.bin")
	g4, g64 := getRun("alloc-small.bin"), getRun("alloc-large.bin")
	if perStripe := (g64 - g4) / 60; perStripe > 0.05 {
		t.Errorf("steady-state GET allocates %.2f/stripe (4 stripes: %.0f allocs, 64 stripes: %.0f)",
			perStripe, g4, g64)
	}
}

// TestGatewayBytesPerRequest: the gateway runs on the shared shardfile
// engine — pooled bufio layers, one compiled code and one stripe ring per
// geometry — so a request allocates little beyond what the transports
// copy with. The limits are ~2x the measured 405 KiB (PUT) and 176 KiB
// (GET); a code compiled per GET, a private stripe ring, or fresh
// per-shard buffers (856 / 676 KiB before the engine was shared) trip them.
func TestGatewayBytesPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c := newFaultCluster(t, 6, 4, 2, 1, tunit)
	payload := randBytes(21, 256<<10)
	ctx := context.Background()
	rd := bytes.NewReader(nil)
	put := func() {
		rd.Reset(payload)
		if _, _, err := c.gw.Put(ctx, "bytes.bin", rd, int64(len(payload))); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		o, err := c.gw.Open(ctx, "bytes.bin")
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		if _, err := o.Stream(discardWriter{}); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 10
	limits := map[string]uint64{"PUT": 800 << 10, "GET": 350 << 10}
	for name, op := range map[string]func(){"PUT": put, "GET": get} {
		put() // warm; GET needs the object
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > limits[name] {
			t.Errorf("gateway %s allocates %d KiB per request, want <= %d KiB", name, perOp>>10, limits[name]>>10)
		}
	}
}

// TestRepairBytesPerObject: scrub and cluster rebuild walk an object one
// pooled stripe at a time, so what they allocate does not grow with the
// object: measured 3 KiB for a clean scrub of this 8 MiB set, 10 KiB to
// heal one shard of it (12.1 and 22.1 MiB when shards were loaded whole)
// and 66 KiB for a cluster rebuild. One private 768 KiB stripe buffer, a
// code compiled per call or a reconstruct that allocates per stripe trips
// the limits.
func TestRepairBytesPerObject(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	// The least of three runs: a sync.Pool keeps one item per P out of
	// other Ps' reach, so a run that lands on the other P after the warm-up
	// allocates a pooled buffer afresh — the scheduler's doing, not the
	// code's.
	allocated := func(op func()) uint64 {
		op() // warm the pools
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			op()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}

	payload := randBytes(31, 8<<20)
	paths := shardfile.DirPaths(t.TempDir(), 6)
	opt := shardfile.Opts{Source: tuned.NewRegistry(tuned.Config{})}
	m, _, err := shardfile.WriteStreamPaths(paths, bytes.NewReader(payload), int64(len(payload)),
		4, 2, gemmec.DefaultUnitSize, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	scrub := func(lose bool, wantHealed int) func() {
		return func() {
			if lose {
				os.Remove(paths[2])
			}
			if healed, err := shardfile.ScrubPaths(paths, m, opt); err != nil || len(healed) != wantHealed {
				t.Fatalf("scrub healed %v, err %v", healed, err)
			}
		}
	}
	if got := allocated(scrub(false, 0)); got > 256<<10 {
		t.Errorf("clean scrub of an 8 MiB object allocates %d KiB, want <= 256 KiB", got>>10)
	}
	if got := allocated(scrub(true, 1)); got > 512<<10 {
		t.Errorf("scrub healing one shard of an 8 MiB object allocates %d KiB, want <= 512 KiB", got>>10)
	}

	c := newFaultCluster(t, 6, 4, 2, 1, tunit)
	small := randBytes(21, 256<<10)
	meta, _, err := c.gw.Put(context.Background(), "bytes.bin", bytes.NewReader(small), int64(len(small)))
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func() {
		if err := c.stores[meta.Placement[2]].DeleteShard(objKey("bytes.bin"), uint64(meta.Gen), 2); err != nil {
			t.Fatal(err)
		}
		if err := c.gw.rebuildObjectShards(context.Background(), meta, []int{2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := allocated(rebuild); got > 512<<10 {
		t.Errorf("rebuilding one shard of a 256 KiB object allocates %d KiB, want <= 512 KiB", got>>10)
	}
}

// discardWriter is io.Discard without the io.Discard ReadFrom fast path,
// so GETs exercise the normal Write loop.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestHotSwapRaceDrill hammers concurrent PUTs and GETs while the
// executor is hot-swapped between generations, asserting every response
// is byte-identical to what was stored and no stream fails. Run under
// `make race-hot` this is the tuner-swap memory-model drill: one atomic
// pointer store per swap, in-flight stripes finish on the old executor.
func TestHotSwapRaceDrill(t *testing.T) {
	s := newTestStore(t)
	payload := randBytes(42, 8*tk*tunit+137)
	mustPut(t, s, "swap.bin", payload)

	const swaps = 8
	stop := make(chan struct{})
	var stopOnce sync.Once
	var failures atomic.Int64
	var wg sync.WaitGroup
	defer func() { // also reached via t.Fatal: halt traffic before cleanup
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}()
	for g := 0; g < 3; g++ { // readers of a fixed object
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf.Reset()
				if _, _, err := s.Get(context.Background(), "swap.bin", &buf); err != nil {
					failures.Add(1)
					t.Errorf("get during swap: %v", err)
					return
				}
				if !bytes.Equal(buf.Bytes(), payload) {
					failures.Add(1)
					t.Error("get during swap returned wrong bytes")
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ { // writers, each immediately verifying its write
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("swap-w%d.bin", g)
			var buf bytes.Buffer
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := randBytes(int64(100*g+i), 3*tk*tunit+g)
				if _, _, err := s.Put(context.Background(), name, bytes.NewReader(body), int64(len(body))); err != nil {
					failures.Add(1)
					t.Errorf("put during swap: %v", err)
					return
				}
				buf.Reset()
				if _, _, err := s.Get(context.Background(), name, &buf); err != nil {
					failures.Add(1)
					t.Errorf("read-back during swap: %v", err)
					return
				}
				if !bytes.Equal(buf.Bytes(), body) {
					failures.Add(1)
					t.Error("read-back during swap returned wrong bytes")
					return
				}
			}
		}(g)
	}

	// Both legal for the test geometry (unit 512 → 8-word planes, kDim 24).
	schedules := []gemmec.Schedule{
		{BlockBytes: 64, Fanin: 2},
		{BlockBytes: 64, Fanin: 4, Staged: true, TilesOuter: true},
	}
	base := s.code.Generation()
	for i := 0; i < swaps; i++ {
		if err := s.code.ApplySchedule(schedules[i%len(schedules)]); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		time.Sleep(3 * time.Millisecond) // let traffic straddle the generation
	}
	stopOnce.Do(func() { close(stop) })
	wg.Wait()
	if got := s.code.Generation() - base; got != swaps {
		t.Errorf("generation advanced by %d, want %d", got, swaps)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed across %d hot swaps", n, swaps)
	}
}

// TestStoreBackgroundTuner: a store opened with tuning enabled retunes
// its hot geometry off live traffic, surfaces the generation in Stats and
// /metricsz, and persists the learned schedule to the cache file across
// Close — the serving-loop autotuner end to end.
func TestStoreBackgroundTuner(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "tune.json")
	s, err := Open(StoreConfig{
		Root:         t.TempDir(),
		Nodes:        tnode,
		K:            tk,
		R:            tr,
		UnitSize:     tunit,
		Workers:      2,
		TuneCache:    cacheFile,
		TuneTrials:   3,
		TuneIdle:     time.Millisecond,
		TuneInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Tuner() == nil {
		t.Fatal("tuner not started with TuneTrials > 0")
	}
	metrics := NewMetrics(nil)
	s.SetMetrics(metrics)

	mustPut(t, s, "hot.bin", randBytes(5, 6*tk*tunit)) // traffic for the tuner to key on
	deadline := time.Now().Add(15 * time.Second)
	for s.Tuner().Runs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background tuner never retuned the hot geometry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Stats()
	if st.TunerRuns < 1 || st.TunerGenerations < 1 {
		t.Fatalf("stats report tuner_runs=%d tuner_generations=%d, want both >= 1",
			st.TunerRuns, st.TunerGenerations)
	}
	// Traffic still serves correctly on the swapped executor.
	got, unusable := mustGet(t, s, "hot.bin")
	if len(unusable) != 0 || !bytes.Equal(got, randBytes(5, 6*tk*tunit)) {
		t.Fatal("object corrupted after background retune")
	}

	rec := httptest.NewRecorder()
	metrics.Registry.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	text := rec.Body.String()
	for _, fam := range []string{
		"gemmec_tuner_runs_total", "gemmec_tuner_generations_total", "gemmec_tuner_trials_total",
		"gemmec_tuner_skipped_busy_total", "gemmec_tuner_shape_requests_total",
		"gemmec_tuner_shape_predicted_gbps", "gemmec_tuner_shape_measured_gbps",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("family %s missing from /metricsz", fam)
		}
	}

	s.Close() // stops the tuner and persists the cache
	if fi, err := os.Stat(cacheFile); err != nil || fi.Size() == 0 {
		t.Fatalf("tuning cache not persisted on close: %v", err)
	}
}

// TestStoreTunerOffByDefault: embedders that don't opt in get no
// background loop and no tuner metric families.
func TestStoreTunerOffByDefault(t *testing.T) {
	s := newTestStore(t)
	if s.Tuner() != nil {
		t.Fatal("tuner running without TuneTrials")
	}
	if st := s.Stats(); st.TunerRuns != 0 || st.TunerGenerations != 0 {
		t.Fatalf("tuner stats nonzero with tuner off: %+v", st)
	}
}
