package server

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"testing"

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

// TestSlabMemberGetAllocs: a packed member's GET is a windowed decode of
// its slab — one metadata-cache hit each for member and slab, the shard
// paths, the open of the one file the window reads and a stat of each of
// the others — so it allocates a small constant. The limit is about 1.5x
// the measured count.
func TestSlabMemberGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	s := newSlabStore(t, 64<<10)
	ctx := context.Background()
	mustPut(t, s, "member", randBytes(41, 4<<10))
	get := func() {
		if _, _, err := s.Get(ctx, "member", discardWriter{}); err != nil {
			t.Fatal(err)
		}
	}
	get() // warm the metadata cache and the pools
	if n := testing.AllocsPerRun(50, get); n > 76 {
		t.Errorf("slab member GET allocates %.0f times, want <= 76", n)
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
