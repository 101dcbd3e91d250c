package gemmec

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func newSmall(t *testing.T, k, r int, opts ...Option) *Code {
	t.Helper()
	opts = append([]Option{WithUnitSize(4096)}, opts...)
	c, err := New(k, r, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEncodeReconstructRoundTrip(t *testing.T) {
	c := newSmall(t, 6, 3)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, c.DataSize())
	rng.Read(data)
	parity := make([]byte, c.ParitySize())
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(data, parity)
	if err != nil || !ok {
		t.Fatalf("verify failed ok=%v err=%v", ok, err)
	}

	unit := c.UnitSize()
	shards := make([][]byte, c.K()+c.R())
	for i := 0; i < c.K(); i++ {
		shards[i] = append([]byte(nil), data[i*unit:(i+1)*unit]...)
	}
	for i := 0; i < c.R(); i++ {
		shards[c.K()+i] = append([]byte(nil), parity[i*unit:(i+1)*unit]...)
	}
	orig := make([][]byte, len(shards))
	copy(orig, shards)

	// Lose the maximum tolerated number of shards.
	lost := []int{0, 4, 7}
	for _, i := range lost {
		shards[i] = nil
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("shard %d wrong after reconstruct", i)
		}
	}

	// Corruption must fail verification.
	parity[3] ^= 0xFF
	ok, err = c.Verify(data, parity)
	if err != nil || ok {
		t.Fatal("corrupted parity verified")
	}
}

func TestEncodeShardsMatchesContiguous(t *testing.T) {
	c := newSmall(t, 5, 2)
	rng := rand.New(rand.NewSource(2))
	unit := c.UnitSize()
	data := make([]byte, c.DataSize())
	rng.Read(data)

	parity := make([]byte, c.ParitySize())
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}

	shards := make([][]byte, c.K()+c.R())
	for i := range shards {
		shards[i] = make([]byte, unit)
		if i < c.K() {
			copy(shards[i], data[i*unit:])
		}
	}
	if err := c.EncodeShards(shards); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.R(); i++ {
		if !bytes.Equal(shards[c.K()+i], parity[i*unit:(i+1)*unit]) {
			t.Fatalf("sharded parity %d mismatch", i)
		}
	}
	// Repeated calls reuse scratch without corruption.
	if err := c.EncodeShards(shards); err != nil {
		t.Fatal(err)
	}

	if err := c.EncodeShards(shards[:3]); err == nil {
		t.Error("wrong shard count accepted")
	}
	shards[1] = shards[1][:10]
	if err := c.EncodeShards(shards); err == nil {
		t.Error("short shard accepted")
	}
}

func TestOptionsValidation(t *testing.T) {
	for name, opt := range map[string]Option{
		"unit0":   WithUnitSize(0),
		"trials0": WithAutotune(0),
	} {
		if _, err := New(4, 2, opt); err == nil {
			t.Errorf("option %s accepted", name)
		}
	}
	if _, err := New(300, 2, WithUnitSize(4096)); err == nil {
		t.Error("k+r beyond field accepted")
	}
}

// TestGridRoundTrip sweeps a grid of geometries through encode -> verify ->
// erase-r -> reconstruct, the public API's blanket soundness test. Every
// construction is swept the same way by core's TestConstructions.
func TestGridRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, kr := range [][2]int{{2, 1}, {3, 2}, {5, 2}, {6, 3}, {10, 4}} {
		k, r := kr[0], kr[1]
		c, err := New(k, r, WithUnitSize(1024))
		if err != nil {
			t.Fatalf("k=%d r=%d: %v", k, r, err)
		}
		data := make([]byte, c.DataSize())
		rng.Read(data)
		parity := make([]byte, c.ParitySize())
		if err := c.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		ok, err := c.Verify(data, parity)
		if err != nil || !ok {
			t.Fatalf("k=%d r=%d: verify failed", k, r)
		}

		unit := c.UnitSize()
		shards := make([][]byte, k+r)
		for i := 0; i < k; i++ {
			shards[i] = append([]byte(nil), data[i*unit:(i+1)*unit]...)
		}
		for i := 0; i < r; i++ {
			shards[k+i] = append([]byte(nil), parity[i*unit:(i+1)*unit]...)
		}
		orig := make([][]byte, len(shards))
		copy(orig, shards)
		for _, i := range rng.Perm(k + r)[:r] {
			shards[i] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("k=%d r=%d: %v", k, r, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("k=%d r=%d: shard %d wrong", k, r, i)
			}
		}
	}
}

// TestWordSizes pins the one word size the public API builds: every code is
// over GF(2^8), so W reports 8, a unit size that is not a multiple of
// 8*w = 64 bytes is rejected, and a lost parity unit is rebuilt. Codes at
// w = 4 and 16 are covered by core's TestEncodeMatchesReference.
func TestWordSizes(t *testing.T) {
	const w = 8
	if _, err := New(4, 2, WithUnitSize(8*w*16+w)); err == nil {
		t.Error("unit size not a multiple of 8*w accepted")
	}
	c, err := New(4, 2, WithUnitSize(8*w*16))
	if err != nil {
		t.Fatal(err)
	}
	if c.W() != w {
		t.Errorf("W()=%d want %d", c.W(), w)
	}
	data := make([]byte, c.DataSize())
	rand.New(rand.NewSource(w)).Read(data)
	parity := make([]byte, c.ParitySize())
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, 6)
	unit := c.UnitSize()
	for i := 0; i < 4; i++ {
		shards[i] = data[i*unit : (i+1)*unit]
	}
	shards[5] = parity[unit:]
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[4], parity[:unit]) {
		t.Error("parity reconstruction wrong")
	}
}

func TestScheduleRoundTripAndPinning(t *testing.T) {
	// unit=4096, w=8 -> planes of 512 bytes = 64 words; 256-byte tiles divide.
	s := Schedule{BlockBytes: 256, Fanin: 4, TilesOuter: true, Workers: 1}
	c := newSmall(t, 8, 2, WithSchedule(s))
	got := c.Schedule()
	if got.BlockBytes != 256 || got.Fanin != 4 || !got.TilesOuter || got.Parallel != "" {
		t.Errorf("schedule round trip gave %+v", got)
	}
	if _, err := New(8, 2, WithUnitSize(4096), WithSchedule(Schedule{BlockBytes: 9, Fanin: 1, Workers: 1})); err == nil {
		t.Error("unaligned block bytes accepted")
	}
	if _, err := New(8, 2, WithUnitSize(4096), WithSchedule(Schedule{BlockBytes: 1024, Fanin: 1, Parallel: "weird", Workers: 2})); err == nil {
		t.Error("bad parallel axis accepted")
	}
	if _, err := New(8, 2, WithUnitSize(4096), WithSchedule(Schedule{BlockBytes: 1000, Fanin: 3, Workers: 1})); err == nil {
		t.Error("illegal schedule accepted")
	}
}

func TestLoweredIRPublic(t *testing.T) {
	c := newSmall(t, 4, 2)
	ir, err := c.LoweredIR()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ir, "vectorize") {
		t.Errorf("IR missing vectorize:\n%s", ir)
	}
}

func TestUpdateParityPublic(t *testing.T) {
	c := newSmall(t, 5, 2)
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, c.DataSize())
	rng.Read(data)
	parity := make([]byte, c.ParitySize())
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	unit := c.UnitSize()
	oldUnit := append([]byte(nil), data[2*unit:3*unit]...)
	newUnit := make([]byte, unit)
	rng.Read(newUnit)
	if err := c.UpdateParity(parity, 2, oldUnit, newUnit); err != nil {
		t.Fatal(err)
	}
	copy(data[2*unit:], newUnit)
	ok, err := c.Verify(data, parity)
	if err != nil || !ok {
		t.Fatalf("parity stale after UpdateParity (ok=%v err=%v)", ok, err)
	}
	if err := c.UpdateParity(parity, 9, oldUnit, newUnit); err == nil {
		t.Error("out-of-range unit accepted")
	}
}

func TestAccessors(t *testing.T) {
	c := newSmall(t, 6, 3)
	if c.K() != 6 || c.R() != 3 || c.UnitSize() != 4096 {
		t.Error("accessors wrong")
	}
	if c.DataSize() != 6*4096 || c.ParitySize() != 3*4096 {
		t.Error("sizes wrong")
	}
}

// TestConcurrentCodeUse drives one Code from several goroutines; run under
// -race to validate the documented concurrency contract of the public API.
func TestConcurrentCodeUse(t *testing.T) {
	c, err := New(4, 2, WithUnitSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			data := make([]byte, c.DataSize())
			rng.Read(data)
			parity := make([]byte, c.ParitySize())
			for iter := 0; iter < 5; iter++ {
				if err := c.Encode(data, parity); err != nil {
					done <- err
					return
				}
				shards := make([][]byte, 6)
				unit := c.UnitSize()
				for i := 0; i < 4; i++ {
					shards[i] = data[i*unit : (i+1)*unit]
				}
				shards[4] = nil
				shards[5] = parity[unit:]
				if err := c.Reconstruct(shards); err != nil {
					done <- err
					return
				}
				if !bytes.Equal(shards[4], parity[:unit]) {
					done <- errMismatch{}
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errMismatch struct{}

func (errMismatch) Error() string { return "reconstructed parity mismatch" }
