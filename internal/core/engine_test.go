package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gemmec/internal/autotune"
	"gemmec/internal/bitmatrix"
	"gemmec/internal/te"
	"gemmec/internal/uezato"
)

func mustEngine(t *testing.T, k, r, unit int, opts Options) *Engine {
	t.Helper()
	e, err := New(k, r, unit, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEncodeMatchesReference(t *testing.T) {
	for _, cfg := range []struct{ k, r, w int }{{8, 2, 8}, {10, 4, 8}, {9, 3, 8}, {6, 2, 4}, {4, 3, 16}} {
		unit := 8 * cfg.w * 32
		e := mustEngine(t, cfg.k, cfg.r, unit, Options{W: cfg.w})
		rng := rand.New(rand.NewSource(int64(cfg.k)))
		data := make([]byte, e.Layout().DataLen())
		rng.Read(data)
		parity := make([]byte, e.Layout().ParityLen())
		if err := e.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, e.Layout().ParityLen())
		if err := bitmatrix.EncodeReference(bitmatrix.FromGF(e.CodingMatrix()), e.Layout(), data, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(parity, want) {
			t.Fatalf("k=%d r=%d w=%d: engine parity differs from reference", cfg.k, cfg.r, cfg.w)
		}
		if e.W() != cfg.w {
			t.Errorf("W()=%d want %d", e.W(), cfg.w)
		}
		// Lose the first r units and rebuild them.
		units := make([][]byte, cfg.k+cfg.r)
		for i := cfg.r; i < cfg.k; i++ {
			units[i] = data[i*unit : (i+1)*unit]
		}
		for i := 0; i < cfg.r; i++ {
			units[cfg.k+i] = parity[i*unit : (i+1)*unit]
		}
		if err := e.Reconstruct(units); err != nil {
			t.Fatalf("k=%d r=%d w=%d reconstruct: %v", cfg.k, cfg.r, cfg.w, err)
		}
		for i := 0; i < cfg.r; i++ {
			if !bytes.Equal(units[i], data[i*unit:(i+1)*unit]) {
				t.Fatalf("k=%d r=%d w=%d: unit %d wrong", cfg.k, cfg.r, cfg.w, i)
			}
		}
	}
}

func TestEngineMatchesUezatoBaseline(t *testing.T) {
	// Same coding matrix family (CauchyGood) => identical parities across
	// the core engine and the uezato baseline.
	k, r, unit := 10, 4, 8192
	e := mustEngine(t, k, r, unit, Options{})
	u, err := uezato.NewWithCoding(e.CodingMatrix())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, k*unit)
	rng.Read(data)
	p1 := make([]byte, r*unit)
	p2 := make([]byte, r*unit)
	if err := e.Encode(data, p1); err != nil {
		t.Fatal(err)
	}
	if err := u.EncodeStripe(data, p2, unit); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, p2) {
		t.Fatal("engine and uezato baseline disagree")
	}
}

func TestTinyWordSizes(t *testing.T) {
	// w=1 is pure replication-free XOR coding (k+r <= 2); w=2 supports
	// k+r <= 4. Exercising them proves the machinery is generic in w.
	for _, cfg := range []struct{ k, r, w int }{{1, 1, 1}, {2, 1, 2}, {2, 2, 2}, {3, 2, 3}} {
		unit := 8 * cfg.w * 4
		e, err := New(cfg.k, cfg.r, unit, Options{W: cfg.w})
		if err != nil {
			t.Fatalf("k=%d r=%d w=%d: %v", cfg.k, cfg.r, cfg.w, err)
		}
		rng := rand.New(rand.NewSource(int64(cfg.w)))
		data := make([]byte, e.Layout().DataLen())
		rng.Read(data)
		parity := make([]byte, e.Layout().ParityLen())
		if err := e.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, e.Layout().ParityLen())
		if err := bitmatrix.EncodeReference(bitmatrix.FromGF(e.CodingMatrix()), e.Layout(), data, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(parity, want) {
			t.Fatalf("w=%d: parity mismatch", cfg.w)
		}
		// Lose r units and reconstruct.
		units := make([][]byte, cfg.k+cfg.r)
		for i := cfg.r; i < cfg.k; i++ {
			units[i] = data[i*unit : (i+1)*unit]
		}
		for i := 0; i < cfg.r; i++ {
			units[cfg.k+i] = parity[i*unit : (i+1)*unit]
		}
		if err := e.Reconstruct(units); err != nil {
			t.Fatalf("w=%d reconstruct: %v", cfg.w, err)
		}
		for i := 0; i < cfg.r && i < cfg.k; i++ {
			if !bytes.Equal(units[i], data[i*unit:(i+1)*unit]) {
				t.Fatalf("w=%d: unit %d wrong", cfg.w, i)
			}
		}
	}
}

// TestConstructions sweeps every generator family over a grid of
// geometries through encode -> verify -> erase r -> reconstruct.
func TestConstructions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, c := range []Construction{ConstructionCauchyGood, ConstructionCauchy, ConstructionVandermonde, ConstructionCauchyBest} {
		for _, kr := range [][2]int{{2, 1}, {3, 2}, {5, 2}, {6, 3}, {10, 4}} {
			k, r, unit := kr[0], kr[1], 1024
			e := mustEngine(t, k, r, unit, Options{Construction: c})
			data := make([]byte, k*unit)
			rng.Read(data)
			parity := make([]byte, r*unit)
			if err := e.Encode(data, parity); err != nil {
				t.Fatalf("construction %d k=%d r=%d: %v", c, k, r, err)
			}
			ok, err := e.Verify(data, parity)
			if err != nil || !ok {
				t.Fatalf("construction %d k=%d r=%d: verify failed (ok=%v err=%v)", c, k, r, ok, err)
			}
			orig := make([][]byte, k+r)
			for i := 0; i < k; i++ {
				orig[i] = data[i*unit : (i+1)*unit]
			}
			for i := 0; i < r; i++ {
				orig[k+i] = parity[i*unit : (i+1)*unit]
			}
			units := append([][]byte(nil), orig...)
			for _, i := range rng.Perm(k + r)[:r] {
				units[i] = nil
			}
			if err := e.Reconstruct(units); err != nil {
				t.Fatalf("construction %d k=%d r=%d: %v", c, k, r, err)
			}
			for i := range units {
				if !bytes.Equal(units[i], orig[i]) {
					t.Fatalf("construction %d k=%d r=%d: unit %d wrong", c, k, r, i)
				}
			}
		}
	}
	if _, err := New(6, 3, 1024, Options{Construction: Construction(77)}); err == nil {
		t.Error("unknown construction accepted")
	}
	if _, err := New(6, 3, 1024, Options{Construction: ConstructionVandermonde, W: 4}); err == nil {
		t.Error("Vandermonde with w=4 accepted")
	}
}

func TestReconstructAllPatterns(t *testing.T) {
	k, r, unit := 5, 3, 960 // 960 = 8*8*15
	e := mustEngine(t, k, r, unit, Options{})
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, k*unit)
	rng.Read(data)
	parity := make([]byte, r*unit)
	if err := e.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	orig := make([][]byte, k+r)
	for i := 0; i < k; i++ {
		orig[i] = data[i*unit : (i+1)*unit]
	}
	for i := 0; i < r; i++ {
		orig[k+i] = parity[i*unit : (i+1)*unit]
	}

	n := k + r
	patterns := 0
	for mask := 1; mask < 1<<n; mask++ {
		nLost := 0
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				nLost++
			}
		}
		if nLost > r {
			continue
		}
		patterns++
		units := make([][]byte, n)
		for i := 0; i < n; i++ {
			if mask>>i&1 == 0 {
				units[i] = append([]byte(nil), orig[i]...)
			}
		}
		if err := e.Reconstruct(units); err != nil {
			t.Fatalf("mask %08b: %v", mask, err)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(units[i], orig[i]) {
				t.Fatalf("mask %08b: unit %d wrong", mask, i)
			}
		}
	}
	if e.CachedDecoders() == 0 || e.CachedDecoders() > patterns {
		t.Errorf("decoder cache size %d after %d patterns", e.CachedDecoders(), patterns)
	}
	// Re-running a pattern must reuse the cache.
	before := e.CachedDecoders()
	units := make([][]byte, n)
	for i := 1; i < n; i++ {
		units[i] = append([]byte(nil), orig[i]...)
	}
	if err := e.Reconstruct(units); err != nil {
		t.Fatal(err)
	}
	if e.CachedDecoders() != before {
		t.Error("decoder cache grew on a repeated pattern")
	}
}

// TestDecoderCacheLRUBound drives more erasure patterns through one engine
// than the decoder cache holds: the cache must stay at its bound, evicted
// patterns must still reconstruct correctly (recompiling on re-entry), and
// CachedDecoders must report the resident count exactly.
func TestDecoderCacheLRUBound(t *testing.T) {
	k, r, unit := 5, 3, 512
	e := mustEngine(t, k, r, unit, Options{})
	rng := rand.New(rand.NewSource(29))
	data := make([]byte, k*unit)
	rng.Read(data)
	parity := make([]byte, r*unit)
	if err := e.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	n := k + r
	orig := make([][]byte, n)
	for i := 0; i < k; i++ {
		orig[i] = data[i*unit : (i+1)*unit]
	}
	for i := 0; i < r; i++ {
		orig[k+i] = parity[i*unit : (i+1)*unit]
	}
	run := func(mask int) {
		t.Helper()
		units := make([][]byte, n)
		for i := 0; i < n; i++ {
			if mask>>i&1 == 0 {
				units[i] = append([]byte(nil), orig[i]...)
			}
		}
		if err := e.Reconstruct(units); err != nil {
			t.Fatalf("mask %08b: %v", mask, err)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(units[i], orig[i]) {
				t.Fatalf("mask %08b: unit %d wrong after reconstruct", mask, i)
			}
		}
	}

	// All single and double erasures: 8 + 28 = 36 distinct patterns > 16.
	var masks []int
	for mask := 1; mask < 1<<n; mask++ {
		if c := bitCount(mask); c >= 1 && c <= 2 {
			masks = append(masks, mask)
		}
	}
	for _, mask := range masks {
		run(mask)
		if c := e.CachedDecoders(); c > DefaultMaxCachedDecoders {
			t.Fatalf("decoder cache grew to %d, bound is %d", c, DefaultMaxCachedDecoders)
		}
	}
	if c := e.CachedDecoders(); c != DefaultMaxCachedDecoders {
		t.Errorf("decoder cache holds %d after %d patterns, want full bound %d",
			c, len(masks), DefaultMaxCachedDecoders)
	}

	// The first pattern was evicted long ago; it must recompile and work,
	// and the cache must not exceed its bound doing so.
	run(masks[0])
	if c := e.CachedDecoders(); c != DefaultMaxCachedDecoders {
		t.Errorf("decoder cache holds %d after evicted-pattern rerun, want %d", c, DefaultMaxCachedDecoders)
	}

	// A resident pattern (just inserted) must hit, not grow the cache.
	run(masks[0])
	if c := e.CachedDecoders(); c != DefaultMaxCachedDecoders {
		t.Errorf("decoder cache holds %d after repeat, want %d", c, DefaultMaxCachedDecoders)
	}
}

func bitCount(mask int) int {
	c := 0
	for ; mask != 0; mask >>= 1 {
		c += mask & 1
	}
	return c
}

func TestReconstructDataOnly(t *testing.T) {
	k, r, unit := 5, 3, 512
	e := mustEngine(t, k, r, unit, Options{})
	rng := rand.New(rand.NewSource(13))
	data := make([]byte, k*unit)
	rng.Read(data)
	parity := make([]byte, r*unit)
	if err := e.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	units := make([][]byte, k+r)
	for i := 0; i < k; i++ {
		units[i] = data[i*unit : (i+1)*unit]
	}
	for i := 0; i < r; i++ {
		units[k+i] = parity[i*unit : (i+1)*unit]
	}
	// Lose data units 1, 3 and parity unit 0.
	want1, want3 := units[1], units[3]
	units[1], units[3], units[k] = nil, nil, nil
	if err := e.ReconstructData(units); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(units[1], want1) || !bytes.Equal(units[3], want3) {
		t.Fatal("data units wrong")
	}
	if units[k] != nil {
		t.Error("parity unit was rebuilt by ReconstructData")
	}
	// Losing only parity is a no-op for ReconstructData.
	units[k+1] = nil
	if err := e.ReconstructData(units); err != nil {
		t.Fatal(err)
	}
	if units[k+1] != nil {
		t.Error("parity-only loss rebuilt")
	}
}

func TestReconstructErrors(t *testing.T) {
	e := mustEngine(t, 4, 2, 512, Options{})
	if err := e.Reconstruct(make([][]byte, 3)); err == nil {
		t.Error("wrong unit count accepted")
	}
	units := make([][]byte, 6)
	units[0] = make([]byte, 512)
	units[1] = make([]byte, 100)
	if err := e.Reconstruct(units); err == nil {
		t.Error("wrong unit size accepted")
	}
	units = make([][]byte, 6)
	units[0] = make([]byte, 512)
	if err := e.Reconstruct(units); err == nil {
		t.Error("too few survivors accepted")
	}
	// Complete stripe is a no-op.
	units = make([][]byte, 6)
	for i := range units {
		units[i] = make([]byte, 512)
	}
	if err := e.Reconstruct(units); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeValidation(t *testing.T) {
	e := mustEngine(t, 4, 2, 512, Options{})
	data := make([]byte, e.Layout().DataLen())
	parity := make([]byte, e.Layout().ParityLen())
	if err := e.Encode(data[:10], parity); err == nil {
		t.Error("short data accepted")
	}
	if err := e.Encode(data, parity[:10]); err == nil {
		t.Error("short parity accepted")
	}
	if _, err := e.Verify(data, parity[:10]); err == nil {
		t.Error("short parity accepted by Verify")
	}
	if _, err := New(4, 2, 100, Options{}); err == nil {
		t.Error("unit not multiple of 8w accepted")
	}
	if _, err := New(0, 2, 512, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(4, 2, 512, Options{W: 99}); err == nil {
		t.Error("bad w accepted")
	}
}

func TestEncodeShardsMatchesContiguous(t *testing.T) {
	k, r, unit := 6, 2, 1024
	e := mustEngine(t, k, r, unit, Options{})
	rng := rand.New(rand.NewSource(5))
	shards := make([][]byte, k+r)
	contig := make([]byte, k*unit)
	for i := range shards {
		shards[i] = make([]byte, unit)
		if i < k {
			rng.Read(shards[i])
			copy(contig[i*unit:], shards[i])
		}
	}
	parity := make([]byte, r*unit)
	if err := e.Encode(contig, parity); err != nil {
		t.Fatal(err)
	}
	if err := e.EncodeShards(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parity, bytes.Join(shards[k:], nil)) {
		t.Fatal("scattered and contiguous encode disagree")
	}
	if err := e.EncodeShards(shards[:3]); !errors.Is(err, ErrShardCount) {
		t.Errorf("wrong shard count: %v, want ErrShardCount", err)
	}
	shards[k] = shards[k][:100]
	if err := e.EncodeShards(shards); !errors.Is(err, ErrShardSize) {
		t.Errorf("wrong shard size: %v, want ErrShardSize", err)
	}
}

func TestExplicitParamsAndAccessors(t *testing.T) {
	p := autotune.Params{BlockWords: 64, Fanin: 4, RowsOuter: true, Parallel: te.ParallelNone, Workers: 1}
	e := mustEngine(t, 8, 2, 4096, Options{Params: &p})
	if e.Params() != p {
		t.Errorf("Params()=%v want %v", e.Params(), p)
	}
	if e.K() != 8 || e.R() != 2 || e.W() != 8 || e.UnitSize() != 4096 {
		t.Error("accessors wrong")
	}
	if e.TuneResult() != nil {
		t.Error("untuned engine reports a tune result")
	}
	bad := autotune.Params{BlockWords: 7, Fanin: 3, Workers: 1}
	if _, err := New(8, 2, 4096, Options{Params: &bad}); err == nil {
		t.Error("illegal params accepted")
	}
}

// TestRefusedScheduleNamesTheSetting: a pinned schedule the space refuses
// says which setting is out of bounds and what it may be. Workers one past
// GOMAXPROCS is refused on any machine.
func TestRefusedScheduleNamesTheSetting(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		p    autotune.Params
		want string
	}{
		{autotune.Params{BlockWords: 64, Fanin: 4, Parallel: te.ParallelRows, Workers: procs + 1},
			fmt.Sprintf("workers=%d outside 1..%d (GOMAXPROCS)", procs+1, procs)},
		{autotune.Params{BlockWords: 64, Fanin: 3, Workers: 1}, "fanin=3 not in [1 2 4 8]"},
		{autotune.Params{BlockWords: 64, Fanin: 4, Workers: 2}, "parallel=none runs workers=1, not 2"},
		{autotune.Params{BlockWords: 64, Fanin: 4, Parallel: te.ParallelBlocks, Workers: 1},
			"parallel=blocks needs a split column axis"},
	} {
		_, err := New(8, 2, 4096, Options{Params: &tc.p})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("schedule %v: err = %v, want it to name %q", tc.p, err, tc.want)
		}
	}
}

// TestTunedConstruction: a tuning budget at New yields a trial history,
// and the tuned schedule only trades speed — its parity is byte-identical
// to a DefaultParams engine's.
func TestTunedConstruction(t *testing.T) {
	tuned := mustEngine(t, 4, 2, 2048, Options{TuneTrials: 6})
	if tuned.TuneResult() == nil || len(tuned.TuneResult().History) == 0 {
		t.Fatal("tuning history missing")
	}
	def := mustEngine(t, 4, 2, 2048, Options{})
	m, kDim, n := def.Shape()
	space, err := autotune.NewSpace(m, kDim, n)
	if err != nil {
		t.Fatal(err)
	}
	if def.Params() != DefaultParams(space) {
		t.Fatalf("untuned engine runs %v, want DefaultParams %v", def.Params(), DefaultParams(space))
	}
	data := make([]byte, def.Layout().DataLen())
	rand.New(rand.NewSource(9)).Read(data)
	p1 := make([]byte, def.Layout().ParityLen())
	p2 := make([]byte, def.Layout().ParityLen())
	if err := tuned.Encode(data, p1); err != nil {
		t.Fatal(err)
	}
	if err := def.Encode(data, p2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, p2) {
		t.Error("tuned and default engines disagree")
	}
}

func TestLoweredIR(t *testing.T) {
	e := mustEngine(t, 8, 2, 8192, Options{})
	ir, err := e.LoweredIR()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vectorize", "C[", "^"} {
		if !strings.Contains(ir, want) {
			t.Errorf("lowered IR missing %q:\n%s", want, ir)
		}
	}
	if e.Params().Fanin > 1 && !strings.Contains(ir, "unroll") {
		t.Error("lowered IR missing unroll annotation")
	}
}

func TestDefaultParams(t *testing.T) {
	s, err := autotune.NewSpace(32, 80, 2048)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(s)
	if !s.Contains(p) {
		t.Fatalf("default params %v not in space", p)
	}
	if p.BlockWords > 512 {
		t.Errorf("default block %d too large", p.BlockWords)
	}
	if p.Fanin != 8 {
		t.Errorf("default fanin %d, want 8 for K=80", p.Fanin)
	}
	if p.RowsOuter {
		t.Error("default should be tiles-outer")
	}
}
