package gemmec

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"gemmec/internal/autotune"
)

// TestRetuneSwapsAndPersists: a bounded retune installs a new executor
// generation, reports its search, keeps the code byte-identical, and
// persists the learned schedule to the tuning cache.
func TestRetuneSwapsAndPersists(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "tune.json")
	c := newSmall(t, 4, 2, WithTuningCache(cacheFile))
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, c.DataSize())
	rng.Read(data)
	before := make([]byte, c.ParitySize())
	if err := c.Encode(data, before); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Retune(0); err == nil {
		t.Error("Retune(0) accepted a non-positive trial budget")
	}
	rep, err := c.Retune(6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials <= 0 {
		t.Errorf("retune reports %d trials, want > 0", rep.Trials)
	}
	if rep.Generation != 1 || c.Generation() != 1 {
		t.Errorf("generation after one retune = %d (report %d), want 1", c.Generation(), rep.Generation)
	}
	if rep.PredictedGBps <= 0 || rep.MeasuredGBps <= 0 {
		t.Errorf("throughput report %.3f predicted / %.3f measured GB/s, want both > 0",
			rep.PredictedGBps, rep.MeasuredGBps)
	}
	// Serial-only search: a daemon's scheduler owns parallelism.
	if rep.Best.Parallel != "" {
		t.Errorf("retune picked parallel schedule %+v, want serial-only", rep.Best)
	}

	after := make([]byte, c.ParitySize())
	if err := c.Encode(data, after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("parity differs across a hot-swap: schedules must not change semantics")
	}

	cache, err := autotune.LoadCache(cacheFile)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("retune did not persist a record to the tuning cache")
	}
	// SaveTuning (the shutdown hook) must be a harmless re-save.
	if err := c.SaveTuning(); err != nil {
		t.Fatal(err)
	}
}

// TestRetuneStartsFromLive: a retune's first trial is the live schedule,
// so a one-trial retune re-confirms it and reports no swap.
func TestRetuneStartsFromLive(t *testing.T) {
	c := newSmall(t, 4, 2)
	live := c.Schedule()
	rep, err := c.Retune(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fromParams(c.lastTune.History[0].Params); got != live {
		t.Errorf("first trial %+v, want the live schedule %+v", got, live)
	}
	if rep.Swapped || rep.Best != live || c.Schedule() != live {
		t.Errorf("live schedule won but retune reports swapped=%v best=%+v (live %+v)", rep.Swapped, rep.Best, live)
	}
}

// TestApplyScheduleHotSwap: an explicit legal schedule swaps in (bumping
// the generation) without changing encode output; an illegal one is
// rejected and leaves the live executor untouched.
func TestApplyScheduleHotSwap(t *testing.T) {
	c := newSmall(t, 4, 2)
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, c.DataSize())
	rng.Read(data)
	want := make([]byte, c.ParitySize())
	if err := c.Encode(data, want); err != nil {
		t.Fatal(err)
	}

	if err := c.ApplySchedule(Schedule{BlockBytes: 256, Fanin: 2}); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 1 {
		t.Errorf("generation = %d after one swap, want 1", c.Generation())
	}
	got := make([]byte, c.ParitySize())
	if err := c.Encode(data, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("parity differs after ApplySchedule")
	}

	if err := c.ApplySchedule(Schedule{BlockBytes: 12, Fanin: 2}); err == nil {
		t.Error("illegal schedule (block not multiple of 8) accepted")
	}
	if err := c.ApplySchedule(Schedule{BlockBytes: 1 << 30, Fanin: 2}); err == nil {
		t.Error("out-of-space schedule accepted")
	}
	if c.Generation() != 1 {
		t.Errorf("failed swaps moved the generation to %d, want 1", c.Generation())
	}
	if err := c.Encode(data, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("parity differs after rejected swaps")
	}
}

// TestWithDecoderCacheValidation pins the option's contract: positive
// bounds are accepted, zero and negative rejected.
func TestWithDecoderCacheValidation(t *testing.T) {
	if _, err := New(4, 2, WithDecoderCache(4)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1} {
		if _, err := New(4, 2, WithDecoderCache(n)); err == nil {
			t.Errorf("WithDecoderCache(%d) accepted, want error", n)
		}
	}
}
