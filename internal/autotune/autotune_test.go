package autotune

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gemmec/internal/te"
)

func testMask(i, j int) bool { return (i+j)%2 == 0 }

func TestSpaceConstruction(t *testing.T) {
	s, err := NewSpace(32, 80, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, bw := range s.Blocks {
		if 2048%bw != 0 {
			t.Errorf("block %d does not divide N", bw)
		}
	}
	// K=80: 2,4,8 all divide.
	if len(s.Fanins) != 4 {
		t.Errorf("fanins %v", s.Fanins)
	}
	// K=81: only fanin 1.
	s2, _ := NewSpace(32, 81, 2048)
	if len(s2.Fanins) != 1 {
		t.Errorf("fanins for K=81: %v", s2.Fanins)
	}
	if _, err := NewSpace(0, 1, 1); err == nil {
		t.Error("invalid shape accepted")
	}
	if s.Size() <= 0 {
		t.Error("size must be positive")
	}
	if len(s.All()) != s.Size() {
		t.Errorf("All()=%d Size()=%d", len(s.All()), s.Size())
	}
}

func TestSpaceSamplingLegal(t *testing.T) {
	s, _ := NewSpace(32, 80, 2048)
	rng := rand.New(rand.NewSource(1))
	p := s.Default()
	if !s.Contains(p) {
		t.Fatal("default point not in space")
	}
	for trial := 0; trial < 200; trial++ {
		p = s.Random(rng)
		if !s.Contains(p) {
			t.Fatalf("random point %v not in space", p)
		}
		p = s.Mutate(rng, p)
		if !s.Contains(p) {
			t.Fatalf("mutated point %v not in space", p)
		}
	}
	for _, p := range s.All() {
		if !s.Contains(p) {
			t.Fatalf("grid point %v not in space", p)
		}
	}
}

func TestNearestTransfersSchedules(t *testing.T) {
	// Tuned point from a 128 KiB-unit space must land on a legal,
	// compilable point of the 32 KiB-unit space, and vice versa.
	big, err := NewSpace(32, 80, 2048)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewSpace(32, 80, 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		p := big.Random(rng)
		q := small.Nearest(p)
		if !small.Contains(q) {
			t.Fatalf("Nearest(%v) = %v not in target space", p, q)
		}
		if _, err := Compile(32, 80, 512, q); err != nil {
			t.Fatalf("transferred point %v does not compile: %v", q, err)
		}
		back := big.Nearest(small.Random(rng))
		if !big.Contains(back) {
			t.Fatalf("reverse transfer %v not legal", back)
		}
	}
	// Fanin transfer: a K=80 fanin-8 schedule onto a K=84 space (fanin
	// candidates 1,2,4) must clamp down, not up.
	odd, err := NewSpace(32, 84, 512)
	if err != nil {
		t.Fatal(err)
	}
	q := odd.Nearest(Params{BlockWords: 512, Fanin: 8, RowsOuter: true, Workers: 1})
	if q.Fanin != 4 {
		t.Errorf("fanin transferred to %d, want 4", q.Fanin)
	}
	if !odd.Contains(q) {
		t.Errorf("clamped point %v not legal", q)
	}
}

func TestCompileRealizesParams(t *testing.T) {
	m, k, n := 32, 80, 2048
	s, _ := NewSpace(m, k, n)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		p := s.Random(rng)
		comp, err := Compile(m, k, n, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		cfg := comp.Kernel.Config()
		if cfg.BlockWords != p.BlockWords || cfg.Fanin != p.Fanin {
			t.Fatalf("%v compiled to %+v", p, cfg)
		}
		if cfg.Parallel != p.Parallel {
			t.Fatalf("%v parallel compiled to %v", p, cfg.Parallel)
		}
		if p.Parallel != te.ParallelNone && cfg.Workers != p.Workers {
			t.Fatalf("%v workers compiled to %d", p, cfg.Workers)
		}
		if p.BlockWords < n && cfg.RowsOuter != p.RowsOuter {
			t.Fatalf("%v rowsOuter compiled to %v", p, cfg.RowsOuter)
		}
	}
	// Block-parallel without a split is rejected.
	if _, err := Compile(m, k, n, Params{BlockWords: n, Fanin: 1, Parallel: te.ParallelBlocks, Workers: 2}); err == nil {
		t.Error("block-parallel without split accepted")
	}
}

// TestCompiledKernelsAgree checks that every point of a small space
// produces identical output — the tuner only ever trades speed, never
// correctness.
func TestCompiledKernelsAgree(t *testing.T) {
	m, k, n := 16, 32, 512
	s, _ := NewSpace(m, k, n)
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, k*n*8)
	rng.Read(data)

	var want []byte
	for _, p := range s.All() {
		comp, err := Compile(m, k, n, p)
		if err != nil {
			t.Fatal(err)
		}
		aBuf := te.NewBuffer(comp.A)
		if err := te.PackMask(aBuf, m, k, testMask); err != nil {
			t.Fatal(err)
		}
		bind := te.Bindings{comp.A: aBuf, comp.B: te.Buffer(data), comp.C: te.NewBuffer(comp.C)}
		if err := comp.Kernel.Exec(bind); err != nil {
			t.Fatal(err)
		}
		got := []byte(bind[comp.C])
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("params %v: output differs at byte %d", p, i)
			}
		}
	}
}

// TestEverySpaceMemberCompiles pins the space/compiler contract on any
// core count: whatever All, Random and Mutate can produce, Contains
// admits and Compile accepts. MaxWorkers is set by hand so the
// multi-core shape of the space is covered on a one-CPU box too.
func TestEverySpaceMemberCompiles(t *testing.T) {
	m, k, n := 16, 32, 512
	for _, workers := range []int{1, 2, 4} {
		s, err := NewSpace(m, k, n)
		if err != nil {
			t.Fatal(err)
		}
		s.MaxWorkers = workers
		all := s.All()
		if len(all) != s.Size() {
			t.Errorf("MaxWorkers=%d: All()=%d Size()=%d", workers, len(all), s.Size())
		}
		for _, p := range all {
			if !s.Contains(p) {
				t.Fatalf("MaxWorkers=%d: grid point %v not in space", workers, p)
			}
			if _, err := Compile(m, k, n, p); err != nil {
				t.Fatalf("MaxWorkers=%d: %v: %v", workers, p, err)
			}
		}
		rng := rand.New(rand.NewSource(int64(workers)))
		p := s.Default()
		for trial := 0; trial < 200; trial++ {
			for _, q := range []Params{s.Random(rng), s.Mutate(rng, p)} {
				if !s.Contains(q) {
					t.Fatalf("MaxWorkers=%d: sampled point %v not in space", workers, q)
				}
				if _, err := Compile(m, k, n, q); err != nil {
					t.Fatalf("MaxWorkers=%d: %v: %v", workers, q, err)
				}
				p = q
			}
		}
		bad := Params{BlockWords: n, Fanin: 1, RowsOuter: true, Parallel: te.ParallelBlocks, Workers: 2}
		if s.Contains(bad) {
			t.Errorf("MaxWorkers=%d: whole-row block-parallel point %v admitted", workers, bad)
		}
		if q := s.Nearest(bad); !s.Contains(q) {
			t.Errorf("MaxWorkers=%d: Nearest(%v) = %v not in space", workers, bad, q)
		}
	}
}

func TestTunerStrategies(t *testing.T) {
	m, k, n := 16, 32, 1024
	for _, strat := range []Strategy{StrategyRandom, StrategyEvolutionary, StrategyGrid} {
		tu, err := NewTuner(m, k, n, testMask, 7)
		if err != nil {
			t.Fatal(err)
		}
		tu.Warmup, tu.Repeats = 0, 1 // fast test
		res, err := tu.Tune(strat, 12)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(res.History) == 0 || len(res.History) > 12 {
			t.Fatalf("%v: %d trials", strat, len(res.History))
		}
		if res.BestTime <= 0 || res.BestTime == time.Duration(math.MaxInt64) {
			t.Fatalf("%v: no best time", strat)
		}
		if !tu.Space().Contains(res.Best) {
			t.Fatalf("%v: best %v not in space", strat, res.Best)
		}
		// BestSoFar must be non-increasing.
		prev := time.Duration(math.MaxInt64)
		for i, tr := range res.History {
			if tr.BestSoFar > prev {
				t.Fatalf("%v: BestSoFar increased at trial %d", strat, i)
			}
			prev = tr.BestSoFar
		}
		if strat.String() == "" {
			t.Error("strategy string empty")
		}
	}
	tu, _ := NewTuner(m, k, n, testMask, 7)
	if _, err := tu.Tune(StrategyRandom, 0); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := tu.Tune(Strategy(99), 5); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestTunerDedupes(t *testing.T) {
	m, k, n := 8, 16, 256
	tu, err := NewTuner(m, k, n, testMask, 1)
	if err != nil {
		t.Fatal(err)
	}
	tu.Warmup, tu.Repeats = 0, 1
	seen := map[Params]int{}
	tu.measureHook = func(p Params, _ time.Duration) { seen[p]++ }
	if _, err := tu.Tune(StrategyEvolutionary, 30); err != nil {
		t.Fatal(err)
	}
	for p, count := range seen {
		if count > 1 {
			t.Errorf("point %v measured %d times", p, count)
		}
	}
}

func TestCostModelLearnsOrdering(t *testing.T) {
	// Train on a synthetic objective strongly determined by one feature and
	// check the model ranks unseen points consistently.
	cm := NewCostModel()
	rng := rand.New(rand.NewSource(4))
	s, _ := NewSpace(32, 80, 4096)
	objective := func(p Params) float64 {
		// Pretend cost grows with passes (low fanin) — feature 3.
		return math.Log(float64(40/p.Fanin) + 1)
	}
	for i := 0; i < 400; i++ {
		p := s.Random(rng)
		cm.Update(Featurize(p, 32, 80, 4096), objective(p))
	}
	if cm.Observations() != 400 {
		t.Fatal("observation count wrong")
	}
	lo := Params{BlockWords: 512, Fanin: 8, RowsOuter: true, Parallel: te.ParallelNone, Workers: 1}
	hi := Params{BlockWords: 512, Fanin: 1, RowsOuter: true, Parallel: te.ParallelNone, Workers: 1}
	if cm.Predict(Featurize(lo, 32, 80, 4096)) >= cm.Predict(Featurize(hi, 32, 80, 4096)) {
		t.Error("model failed to learn fanin ordering")
	}
}

func TestCostModelUntrainedIsNeutral(t *testing.T) {
	cm := NewCostModel()
	p := Params{BlockWords: 64, Fanin: 2, Workers: 1}
	if got := cm.Predict(Featurize(p, 8, 8, 64)); got != 0 {
		t.Errorf("untrained prediction %v, want 0", got)
	}
}

func TestGBps(t *testing.T) {
	if got := GBps(1<<30, time.Second); math.Abs(got-1.073741824) > 1e-9 {
		t.Errorf("GBps=%v", got)
	}
	if GBps(100, 0) != 0 {
		t.Error("zero duration should yield 0")
	}
}

func TestTuningLogRoundTrip(t *testing.T) {
	tu, err := NewTuner(8, 16, 256, testMask, 5)
	if err != nil {
		t.Fatal(err)
	}
	tu.Warmup, tu.Repeats = 0, 1
	res, err := tu.Tune(StrategyRandom, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.History) != len(res.History) {
		t.Fatalf("history %d != %d", len(back.History), len(res.History))
	}
	if back.Best != res.Best || back.BestTime != res.BestTime {
		t.Errorf("best %v/%v != %v/%v", back.Best, back.BestTime, res.Best, res.BestTime)
	}
	if _, err := ReadLog(bytes.NewReader(nil)); err == nil {
		t.Error("empty log accepted")
	}
	if _, err := ReadLog(bytes.NewReader([]byte("{bad"))); err == nil {
		t.Error("corrupt log accepted")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")

	c := NewCache()
	key := Key(32, 80, 2048, 4)
	rec := Record{Params: Params{BlockWords: 256, Fanin: 4, RowsOuter: true, Workers: 1}, Elapsed: 123 * time.Microsecond, Trials: 50}
	c.Put(key, rec)
	if c.Len() != 1 {
		t.Fatal("Len wrong")
	}
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := loaded.Get(key)
	if !ok || got.Params != rec.Params || got.Elapsed != rec.Elapsed {
		t.Fatalf("loaded %+v want %+v", got, rec)
	}
	if _, ok := loaded.Get("nope"); ok {
		t.Error("missing key found")
	}
}

func TestCacheMissingAndCorrupt(t *testing.T) {
	c, err := LoadCache(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || c.Len() != 0 {
		t.Fatalf("missing file should give empty cache (err=%v)", err)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCache(bad); err == nil {
		t.Error("corrupt JSON accepted")
	}
	zero := filepath.Join(dir, "zero.json")
	if err := os.WriteFile(zero, []byte(`{"k":{"params":{"block_words":0,"fanin":0,"workers":0},"elapsed_ns":1,"trials":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCache(zero); err == nil {
		t.Error("invalid record accepted")
	}
}
