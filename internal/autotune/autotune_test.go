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
	if !s.Contains(s.Default()) {
		t.Fatal("default point not in space")
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
	for _, p := range big.All() {
		q := small.Nearest(p)
		if !small.Contains(q) {
			t.Fatalf("Nearest(%v) = %v not in target space", p, q)
		}
		if _, err := Compile(32, 80, 512, q); err != nil {
			t.Fatalf("transferred point %v does not compile: %v", q, err)
		}
	}
	for _, p := range small.All() {
		if back := big.Nearest(p); !big.Contains(back) {
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
	for _, p := range s.All() {
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
// core count: whatever All can produce, Contains admits and Compile
// accepts. MaxWorkers is set by hand so the
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
		bad := Params{BlockWords: n, Fanin: 1, RowsOuter: true, Parallel: te.ParallelBlocks, Workers: 2}
		if s.Contains(bad) {
			t.Errorf("MaxWorkers=%d: whole-row block-parallel point %v admitted", workers, bad)
		}
		if q := s.Nearest(bad); !s.Contains(q) {
			t.Errorf("MaxWorkers=%d: Nearest(%v) = %v not in space", workers, bad, q)
		}
	}
}

// TestTunerStrategies checks the result contract of the one search: the
// budget is spent, the best is a legal point with a real time, and the
// best-so-far curve never rises.
func TestTunerStrategies(t *testing.T) {
	m, k, n := 16, 32, 1024
	tu, err := NewTuner(m, k, n, testMask)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.Tune(tu.Space().Default(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 12 {
		t.Fatalf("%d trials, want 12", len(res.History))
	}
	if res.BestTime <= 0 || res.BestTime == time.Duration(math.MaxInt64) {
		t.Fatal("no best time")
	}
	if !tu.Space().Contains(res.Best) {
		t.Fatalf("best %v not in space", res.Best)
	}
	// BestSoFar must be non-increasing.
	prev := time.Duration(math.MaxInt64)
	for i, tr := range res.History {
		if tr.BestSoFar > prev {
			t.Fatalf("BestSoFar increased at trial %d", i)
		}
		prev = tr.BestSoFar
	}
}

// TestNearestFirstOrder pins the search order on the full multi-core
// space: every point exactly once, from first, and the distance from it
// never falling — so every one-knob neighbour precedes any two-knob point.
func TestNearestFirstOrder(t *testing.T) {
	s, err := NewSpace(32, 80, 2048)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxWorkers = 4
	all := s.All()
	for _, from := range []Params{all[0], all[len(all)/2], all[len(all)-1]} {
		order := s.nearestFirst(from)
		if len(order) != len(all) {
			t.Fatalf("order has %d points, space %d", len(order), len(all))
		}
		if order[0] != from {
			t.Fatalf("order starts at %v, want %v", order[0], from)
		}
		seen := map[Params]bool{}
		for i, p := range order {
			if seen[p] {
				t.Fatalf("%v visited twice", p)
			}
			seen[p] = true
			if i > 0 && knobsApart(p, from) < knobsApart(order[i-1], from) {
				t.Fatalf("from %v: %v (%d knobs) after %v (%d knobs)", from,
					p, knobsApart(p, from), order[i-1], knobsApart(order[i-1], from))
			}
		}
		if knobsApart(order[1], from) != 1 {
			t.Errorf("from %v: second point %v is not a one-knob neighbour", from, order[1])
		}
	}
	// The parallel axis and its workers are one knob.
	a := Params{BlockWords: 64, Fanin: 2, Parallel: te.ParallelRows, Workers: 2}
	b := a
	b.Parallel, b.Workers = te.ParallelBlocks, 4
	if got := knobsApart(a, b); got != 1 {
		t.Errorf("axis+workers change counts %d knobs, want 1", got)
	}
}

// TestTuneSearch: trial 1 is the start point, the trials follow the
// nearest-first order, a budget at or above Size visits each point of
// All() exactly once, and two runs visit the same sequence.
func TestTuneSearch(t *testing.T) {
	m, k, n := 8, 16, 256
	tu, err := NewTuner(m, k, n, testMask)
	if err != nil {
		t.Fatal(err)
	}
	tu.space.MaxWorkers = 1 // serial schedules only: a small space to enumerate in full
	s := tu.Space()
	from := s.All()[s.Size()/2]
	full, err := tu.Tune(from, s.Size()+5)
	if err != nil {
		t.Fatal(err)
	}
	if full.History[0].Params != from {
		t.Fatalf("trial 1 is %v, want the start point %v", full.History[0].Params, from)
	}
	if len(full.History) != s.Size() {
		t.Fatalf("%d trials on a %d-point space", len(full.History), s.Size())
	}
	order := s.nearestFirst(from)
	visits := map[Params]int{}
	for i, tr := range full.History {
		visits[tr.Params]++
		if tr.Params != order[i] {
			t.Fatalf("trial %d is %v, want %v in nearest-first order", i+1, tr.Params, order[i])
		}
	}
	for _, p := range s.All() {
		if visits[p] != 1 {
			t.Errorf("%v visited %d times, want 1", p, visits[p])
		}
	}

	again, err := tu.Tune(from, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range again.History {
		if tr.Params != full.History[i].Params {
			t.Fatalf("trial %d: second run visits %v, first %v", i+1, tr.Params, full.History[i].Params)
		}
	}
}

func TestTuneRefuses(t *testing.T) {
	tu, err := NewTuner(8, 16, 256, testMask)
	if err != nil {
		t.Fatal(err)
	}
	from := tu.Space().Default()
	for _, trials := range []int{0, -1} {
		if _, err := tu.Tune(from, trials); err == nil {
			t.Errorf("%d trials accepted", trials)
		}
	}
	illegal := Params{BlockWords: 7, Fanin: 3, Workers: 1}
	if _, err := tu.Tune(illegal, 5); err == nil {
		t.Errorf("illegal start point %v accepted", illegal)
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
	tu, err := NewTuner(8, 16, 256, testMask)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.Tune(tu.Space().Default(), 8)
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
