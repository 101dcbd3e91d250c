package core

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestUpdateParityMatchesReencode(t *testing.T) {
	for _, cfg := range []struct{ k, r, w int }{{6, 3, 8}, {5, 2, 4}, {4, 2, 16}} {
		unit := 8 * cfg.w * 16
		e := mustEngine(t, cfg.k, cfg.r, unit, Options{W: cfg.w})
		rng := rand.New(rand.NewSource(int64(cfg.k)))

		data := make([]byte, e.Layout().DataLen())
		rng.Read(data)
		parity := make([]byte, e.Layout().ParityLen())
		if err := e.Encode(data, parity); err != nil {
			t.Fatal(err)
		}

		// Change every unit once, in random order, updating incrementally.
		for _, u := range rng.Perm(cfg.k) {
			oldUnit := append([]byte(nil), data[u*unit:(u+1)*unit]...)
			newUnit := make([]byte, unit)
			rng.Read(newUnit)
			if err := e.UpdateParity(parity, u, oldUnit, newUnit); err != nil {
				t.Fatalf("k=%d w=%d unit %d: %v", cfg.k, cfg.w, u, err)
			}
			copy(data[u*unit:], newUnit)

			want := make([]byte, e.Layout().ParityLen())
			if err := e.Encode(data, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(parity, want) {
				t.Fatalf("k=%d w=%d: incremental parity diverged after updating unit %d", cfg.k, cfg.w, u)
			}
		}
		if e.CachedUpdaters() != cfg.k {
			t.Errorf("updater cache has %d entries, want %d", e.CachedUpdaters(), cfg.k)
		}
	}
}

func TestAccumulateParityMatchesEncode(t *testing.T) {
	k, r, unit := 6, 3, 1024
	e := mustEngine(t, k, r, unit, Options{})
	rng := rand.New(rand.NewSource(31))
	data := make([]byte, k*unit)
	rng.Read(data)
	want := make([]byte, r*unit)
	if err := e.Encode(data, want); err != nil {
		t.Fatal(err)
	}
	parity := make([]byte, r*unit)
	for _, u := range rng.Perm(k) { // streaming arrival, random order
		if err := e.AccumulateParity(parity, u, data[u*unit:(u+1)*unit]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(parity, want) {
		t.Fatal("accumulated parity differs from batch encode")
	}
	// Validation paths.
	if err := e.AccumulateParity(parity[:10], 0, data[:unit]); err == nil {
		t.Error("short parity accepted")
	}
	if err := e.AccumulateParity(parity, k, data[:unit]); err == nil {
		t.Error("unit index out of range accepted")
	}
	if err := e.AccumulateParity(parity, 0, data[:10]); err == nil {
		t.Error("short unit accepted")
	}
}

func TestUpdateParityNoOpDelta(t *testing.T) {
	e := mustEngine(t, 4, 2, 512, Options{})
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, e.Layout().DataLen())
	rng.Read(data)
	parity := make([]byte, e.Layout().ParityLen())
	if err := e.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), parity...)
	unit := data[512:1024]
	if err := e.UpdateParity(parity, 1, unit, unit); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parity, snapshot) {
		t.Error("zero delta changed parity")
	}
}

func TestUpdateParityValidation(t *testing.T) {
	e := mustEngine(t, 4, 2, 512, Options{})
	parity := make([]byte, e.Layout().ParityLen())
	unit := make([]byte, 512)
	if err := e.UpdateParity(parity[:10], 0, unit, unit); err == nil {
		t.Error("short parity accepted")
	}
	if err := e.UpdateParity(parity, -1, unit, unit); err == nil {
		t.Error("negative unit accepted")
	}
	if err := e.UpdateParity(parity, 4, unit, unit); err == nil {
		t.Error("unit out of range accepted")
	}
	if err := e.UpdateParity(parity, 0, unit[:10], unit); err == nil {
		t.Error("short old unit accepted")
	}
	if err := e.UpdateParity(parity, 0, unit, unit[:10]); err == nil {
		t.Error("short new unit accepted")
	}
}

func TestUpdaterCacheReuse(t *testing.T) {
	e := mustEngine(t, 4, 2, 512, Options{})
	parity := make([]byte, e.Layout().ParityLen())
	unit := make([]byte, 512)
	for i := 0; i < 3; i++ {
		if err := e.UpdateParity(parity, 2, unit, unit); err != nil {
			t.Fatal(err)
		}
	}
	if e.CachedUpdaters() != 1 {
		t.Errorf("cache=%d want 1", e.CachedUpdaters())
	}
}

// TestUpdateParitySteadyStateAllocs: once a unit's update kernels are
// compiled, UpdateParity and AccumulateParity run on the caller's buffers
// and allocate nothing per call.
func TestUpdateParitySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	k, r, unit := 6, 3, 1024
	e := mustEngine(t, k, r, unit, Options{})
	rng := rand.New(rand.NewSource(32))
	oldUnit := make([]byte, unit)
	newUnit := make([]byte, unit)
	rng.Read(oldUnit)
	rng.Read(newUnit)
	parity := make([]byte, r*unit)
	for name, call := range map[string]func() error{
		"UpdateParity":     func() error { return e.UpdateParity(parity, 2, oldUnit, newUnit) },
		"AccumulateParity": func() error { return e.AccumulateParity(parity, 2, newUnit) },
	} {
		if err := call(); err != nil { // compiles the kernel, fills the pool
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestReconstructSteadyStateAllocs: once an erasure pattern's decoder is
// cached, a Reconstruct whose lost units come with their capacity reads
// the survivors and writes the lost units in place and allocates nothing,
// for the full and the data-only rebuild alike.
func TestReconstructSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	k, r, unit := 6, 3, 1024
	e := mustEngine(t, k, r, unit, Options{})
	rng := rand.New(rand.NewSource(33))
	data := make([]byte, k*unit)
	rng.Read(data)
	parity := make([]byte, r*unit)
	if err := e.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	stripe := append(data, parity...)
	lostBuf := make([]byte, 2*unit)
	units := make([][]byte, k+r)
	for name, call := range map[string]func([][]byte) error{
		"Reconstruct":     e.Reconstruct,
		"ReconstructData": e.ReconstructData,
	} {
		rebuild := func() {
			for i := range units {
				units[i] = stripe[i*unit : (i+1)*unit]
			}
			units[1] = lostBuf[:0:unit]                // a data unit
			units[k+1] = lostBuf[unit : unit : 2*unit] // a parity unit
			if err := call(units); err != nil {
				t.Fatal(err)
			}
		}
		rebuild() // compiles and caches the decoder
		if !bytes.Equal(units[1], stripe[unit:2*unit]) {
			t.Fatalf("%s rebuilt data unit 1 wrong", name)
		}
		if allocs := testing.AllocsPerRun(50, rebuild); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
}
