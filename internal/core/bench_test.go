package core

import (
	"math/rand"
	"testing"
)

func benchEngine(b *testing.B) (*Engine, []byte, []byte) {
	b.Helper()
	e, err := New(10, 4, 128<<10, Options{})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, e.Layout().DataLen())
	rand.New(rand.NewSource(1)).Read(data)
	return e, data, make([]byte, e.Layout().ParityLen())
}

func BenchmarkEncode(b *testing.B) {
	e, data, parity := benchEngine(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify is one stripe of a verify walk (shardfile.Verify calls
// Verify once per stripe): recompute parity, compare. It must report 0
// allocs/op — the recomputed parity comes from a pooled scratch stripe.
func BenchmarkVerify(b *testing.B) {
	e, data, parity := benchEngine(b)
	if err := e.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := e.Verify(data, parity); err != nil || !ok {
			b.Fatalf("verify = %v, %v", ok, err)
		}
	}
}

func BenchmarkReconstructTwo(b *testing.B) {
	e, data, parity := benchEngine(b)
	if err := e.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	unit := e.UnitSize()
	b.SetBytes(int64(2 * unit))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		units := make([][]byte, e.K()+e.R())
		for u := 2; u < e.K(); u++ {
			units[u] = data[u*unit : (u+1)*unit]
		}
		for u := 0; u < e.R(); u++ {
			units[e.K()+u] = parity[u*unit : (u+1)*unit]
		}
		if err := e.Reconstruct(units); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstructDataOne is a degraded read's stripe: one lost data
// unit, rebuilt into capacity the caller supplies (as the streaming
// pipeline hands over its ring buffer), parity left alone.
func BenchmarkReconstructDataOne(b *testing.B) {
	e, data, parity := benchEngine(b)
	if err := e.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	unit := e.UnitSize()
	lost := make([]byte, unit)
	units := make([][]byte, e.K()+e.R())
	b.ReportAllocs()
	b.SetBytes(int64(unit))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < e.K(); u++ {
			units[u] = data[u*unit : (u+1)*unit]
		}
		for u := 0; u < e.R(); u++ {
			units[e.K()+u] = parity[u*unit : (u+1)*unit]
		}
		units[0] = lost[:0]
		if err := e.ReconstructData(units); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateParity(b *testing.B) {
	e, data, parity := benchEngine(b)
	if err := e.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	unit := e.UnitSize()
	newUnit := make([]byte, unit)
	rand.New(rand.NewSource(2)).Read(newUnit)
	b.SetBytes(int64(unit))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.UpdateParity(parity, 3, data[3*unit:4*unit], newUnit); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineConstruction(b *testing.B) {
	// Untuned construction cost: matrices, bitmatrix, kernel compile.
	for i := 0; i < b.N; i++ {
		if _, err := New(10, 4, 128<<10, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeAllocs(b *testing.B) {
	// Steady-state encoding must be allocation-light: the generator's
	// selection lists are prebound at construction and operands bypass the
	// Bindings map, leaving only the kernel's per-call scratch (a few KB
	// against megabytes encoded).
	e, data, parity := benchEngine(b)
	if err := e.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}
