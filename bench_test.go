// Benchmarks regenerating the paper's evaluation through `go test -bench`.
// One benchmark family per table/figure (see DESIGN.md §3):
//
//	BenchmarkFig2         - Figure 2 encode throughput grid (all 3 libraries)
//	BenchmarkMemcpy       - §5 memcpy-overhead comparison
//	BenchmarkBlockFactor  - §6.1 Uezato blocking-factor sweep
//	BenchmarkDecode       - §8 decode throughput
//	BenchmarkWSweep       - §8 word-size sweep
//	BenchmarkLRC          - §8 LRC encode + local repair
//	BenchmarkAblation     - schedule-knob ablation
//
// Use cmd/ecbench for the formatted paper-style tables; these benches give
// the same measurements in standard Go benchmark form (ns/op, MB/s).
package gemmec_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"gemmec"
	"gemmec/internal/autotune"
	"gemmec/internal/core"
	"gemmec/internal/isal"
	"gemmec/internal/jerasure"
	"gemmec/internal/lrc"
	"gemmec/internal/uezato"

	"gemmec/internal/bench"
)

// benchUnit keeps bench memory modest while exercising the same cache
// behaviour ratios as the paper's 128 KiB units.
const benchUnit = 128 << 10

func benchData(k int) []byte { return bench.RandomBytes(1, k*benchUnit) }

func newBenchEngine(b *testing.B, k, r int) *core.Engine {
	b.Helper()
	eng, err := core.New(k, r, benchUnit, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkFig2 is the Figure 2 grid: encode throughput for k in {8,9,10},
// r in {2,3,4}, w=8, for gemmec and both baselines.
func BenchmarkFig2(b *testing.B) {
	for _, k := range []int{8, 9, 10} {
		for _, r := range []int{2, 3, 4} {
			data := benchData(k)
			parity := make([]byte, r*benchUnit)

			eng := newBenchEngine(b, k, r)
			b.Run(fmt.Sprintf("gemmec/k=%d/r=%d", k, r), func(b *testing.B) {
				b.SetBytes(int64(k * benchUnit))
				for i := 0; i < b.N; i++ {
					if err := eng.Encode(data, parity); err != nil {
						b.Fatal(err)
					}
				}
			})

			uz, err := uezato.New(k, r, 8)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("uezato/k=%d/r=%d", k, r), func(b *testing.B) {
				b.SetBytes(int64(k * benchUnit))
				for i := 0; i < b.N; i++ {
					if err := uz.EncodeStripe(data, parity, benchUnit); err != nil {
						b.Fatal(err)
					}
				}
			})

			is, err := isal.New(k, r)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("isal/k=%d/r=%d", k, r), func(b *testing.B) {
				b.SetBytes(int64(k * benchUnit))
				for i := 0; i < b.N; i++ {
					if err := is.EncodeStripe(data, parity, benchUnit); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEncodeStream measures the pipelined streaming engine against
// its serial baseline (workers=1). On a multi-core runner, 4+ workers
// overlap the compiled kernel with stripe I/O and scale throughput; shard
// output is byte-identical at every worker count (the in-order writer
// reorders by sequence number, verified by TestStreamOrderIdentical).
func BenchmarkEncodeStream(b *testing.B) {
	k, r := 10, 4
	code, err := gemmec.New(k, r, gemmec.WithUnitSize(benchUnit))
	if err != nil {
		b.Fatal(err)
	}
	pool, err := code.NewStreamPool()
	if err != nil {
		b.Fatal(err)
	}
	const stripes = 16
	payload := bench.RandomBytes(3, stripes*code.DataSize())
	writers := make([]io.Writer, k+r)
	for i := range writers {
		writers[i] = io.Discard
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			mode := gemmec.StreamWorkers(b, workers)
			for i := 0; i < b.N; i++ {
				if _, err := code.EncodeStream(bytes.NewReader(payload), writers,
					mode, gemmec.WithStreamPool(pool)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeStream measures the decode side of the pipeline with one
// lost data shard, so every stripe pays a reconstruction kernel.
func BenchmarkDecodeStream(b *testing.B) {
	k, r := 10, 4
	code, err := gemmec.New(k, r, gemmec.WithUnitSize(benchUnit))
	if err != nil {
		b.Fatal(err)
	}
	pool, err := code.NewStreamPool()
	if err != nil {
		b.Fatal(err)
	}
	const stripes = 16
	payload := bench.RandomBytes(4, stripes*code.DataSize())
	sinks := make([]*bytes.Buffer, k+r)
	writers := make([]io.Writer, k+r)
	for i := range sinks {
		sinks[i] = &bytes.Buffer{}
		writers[i] = sinks[i]
	}
	n, err := code.EncodeStream(bytes.NewReader(payload), writers)
	if err != nil {
		b.Fatal(err)
	}
	readers := make([]io.Reader, k+r)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(n)
			mode := gemmec.StreamWorkers(b, workers)
			for i := 0; i < b.N; i++ {
				for j := range readers {
					readers[j] = bytes.NewReader(sinks[j].Bytes())
				}
				readers[0] = nil
				if err := code.DecodeStream(readers, io.Discard, n,
					mode, gemmec.WithStreamPool(pool)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemcpy is the §5 experiment: contiguous encode vs
// gather-then-encode vs encoding the scattered units by reference vs
// jerasure's pointer API.
func BenchmarkMemcpy(b *testing.B) {
	k, r := 10, 4
	eng := newBenchEngine(b, k, r)
	contig := benchData(k)
	units := make([][]byte, k)
	for i := range units {
		units[i] = append([]byte(nil), contig[i*benchUnit:(i+1)*benchUnit]...)
	}
	parity := make([]byte, r*benchUnit)

	b.Run("contiguous", func(b *testing.B) {
		b.SetBytes(int64(k * benchUnit))
		for i := 0; i < b.N; i++ {
			if err := eng.Encode(contig, parity); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gather-then-encode", func(b *testing.B) {
		b.SetBytes(int64(k * benchUnit))
		scratch := make([]byte, k*benchUnit)
		for i := 0; i < b.N; i++ {
			for u, d := range units {
				copy(scratch[u*benchUnit:], d)
			}
			if err := eng.Encode(scratch, parity); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("by-reference", func(b *testing.B) {
		b.SetBytes(int64(k * benchUnit))
		shards := append(append([][]byte(nil), units...), make([][]byte, r)...)
		for i := k; i < k+r; i++ {
			shards[i] = make([]byte, benchUnit)
		}
		for i := 0; i < b.N; i++ {
			if err := eng.EncodeShards(shards); err != nil {
				b.Fatal(err)
			}
		}
	})
	jz, err := jerasure.New(k, r, 8)
	if err != nil {
		b.Fatal(err)
	}
	jparity := make([][]byte, r)
	for i := range jparity {
		jparity[i] = make([]byte, benchUnit)
	}
	b.Run("jerasure-pointers", func(b *testing.B) {
		b.SetBytes(int64(k * benchUnit))
		for i := 0; i < b.N; i++ {
			if err := jz.Encode(units, jparity); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBlockFactor sweeps the Uezato baseline's cache-blocking factor
// (§6.1; the paper reports 2 KB typically best).
func BenchmarkBlockFactor(b *testing.B) {
	k, r := 10, 4
	data := benchData(k)
	parity := make([]byte, r*benchUnit)
	for _, block := range []int{512, 1024, 2048, 4096, 8192, 16384, 65536} {
		uz, err := uezato.New(k, r, 8, uezato.WithBlockBytes(block))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("block=%d", block), func(b *testing.B) {
			b.SetBytes(int64(k * benchUnit))
			for i := 0; i < b.N; i++ {
				if err := uz.EncodeStripe(data, parity, benchUnit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode measures reconstruction throughput vs erasure count (§8
// future work).
func BenchmarkDecode(b *testing.B) {
	k, r := 10, 4
	eng := newBenchEngine(b, k, r)
	data := benchData(k)
	parity := make([]byte, r*benchUnit)
	if err := eng.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	for e := 1; e <= r; e++ {
		b.Run(fmt.Sprintf("erasures=%d", e), func(b *testing.B) {
			b.SetBytes(int64(e * benchUnit))
			for i := 0; i < b.N; i++ {
				units := make([][]byte, k+r)
				for u := e; u < k; u++ {
					units[u] = data[u*benchUnit : (u+1)*benchUnit]
				}
				for u := 0; u < r; u++ {
					units[k+u] = parity[u*benchUnit : (u+1)*benchUnit]
				}
				if err := eng.Reconstruct(units); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWSweep varies the field word size (§8 future work).
func BenchmarkWSweep(b *testing.B) {
	k, r := 10, 4
	for _, w := range []int{4, 8, 16} {
		unit := benchUnit
		eng, err := core.New(k, r, unit, core.Options{W: w})
		if err != nil {
			b.Fatal(err)
		}
		data := benchData(k)
		parity := make([]byte, r*unit)
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.SetBytes(int64(k * unit))
			for i := 0; i < b.N; i++ {
				if err := eng.Encode(data, parity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLRC measures LRC encode and single-failure local repair (§8
// future work).
func BenchmarkLRC(b *testing.B) {
	k, l, g := 12, 2, 2
	lc, err := lrc.New(k, l, g, benchUnit)
	if err != nil {
		b.Fatal(err)
	}
	data := bench.RandomBytes(1, k*benchUnit)
	parity := make([]byte, (l+g)*benchUnit)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(k * benchUnit))
		for i := 0; i < b.N; i++ {
			if err := lc.Encode(data, parity); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := lc.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, lc.N())
	for i := 0; i < k; i++ {
		shards[i] = data[i*benchUnit : (i+1)*benchUnit]
	}
	for i := 0; i < l+g; i++ {
		shards[k+i] = parity[i*benchUnit : (i+1)*benchUnit]
	}
	b.Run("local-repair", func(b *testing.B) {
		b.SetBytes(int64(benchUnit))
		for i := 0; i < b.N; i++ {
			work := make([][]byte, len(shards))
			copy(work, shards)
			work[0] = nil
			if err := lc.Reconstruct(work); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUpdate compares the incremental small-write parity update
// against a full re-encode.
func BenchmarkUpdate(b *testing.B) {
	k, r := 10, 4
	eng := newBenchEngine(b, k, r)
	data := benchData(k)
	parity := make([]byte, r*benchUnit)
	if err := eng.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	oldUnit := data[:benchUnit]
	newUnit := bench.RandomBytes(9, benchUnit)
	b.Run("full-reencode", func(b *testing.B) {
		b.SetBytes(int64(k * benchUnit))
		for i := 0; i < b.N; i++ {
			if err := eng.Encode(data, parity); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		b.SetBytes(int64(benchUnit))
		for i := 0; i < b.N; i++ {
			if err := eng.UpdateParity(parity, 0, oldUnit, newUnit); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation strikes one schedule optimization at a time from the
// default tuned schedule.
func BenchmarkAblation(b *testing.B) {
	k, r := 10, 4
	eng := newBenchEngine(b, k, r)
	base := eng.Params()
	n := base.BlockWords // recompute full-row width
	{
		space, err := autotune.NewSpace(r*8, k*8, benchUnit/8/8)
		if err != nil {
			b.Fatal(err)
		}
		n = space.N
	}
	variants := map[string]autotune.Params{
		"tuned":     base,
		"fanin1":    {BlockWords: base.BlockWords, Fanin: 1, RowsOuter: base.RowsOuter, Workers: 1},
		"untiled":   {BlockWords: n, Fanin: base.Fanin, RowsOuter: base.RowsOuter, Workers: 1},
		"rowsOuter": {BlockWords: base.BlockWords, Fanin: base.Fanin, RowsOuter: true, Workers: 1},
	}
	data := benchData(k)
	parity := make([]byte, r*benchUnit)
	for name, p := range variants {
		p := p
		e, err := core.New(k, r, benchUnit, core.Options{Params: &p})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(k * benchUnit))
			for i := 0; i < b.N; i++ {
				if err := e.Encode(data, parity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
