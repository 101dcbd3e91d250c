// Command ectune autotunes a gemmec kernel schedule for one erasure-code
// geometry and optionally persists it to a tuning cache (the equivalent of
// a TVM tuning log). Storage systems run this once per machine and ship
// the cache; gemmec.New(..., WithTuningCache(path)) then picks the tuned
// schedule up with no construction-time cost.
//
// Usage:
//
//	ectune -k 10 -r 4 -unit 131072 -trials 200 -cache tune.json
//	ectune -k 10 -r 4 -trials 20 -v
//
// The search measures the trials schedules nearest core.DefaultParams,
// nearest first; a budget at or above the space's size is the full grid.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"gemmec/internal/autotune"
	"gemmec/internal/bitmatrix"
	"gemmec/internal/core"
	"gemmec/internal/gf"
	"gemmec/internal/matrix"
)

func main() {
	var (
		k       = flag.Int("k", 10, "data units")
		r       = flag.Int("r", 4, "parity units")
		w       = flag.Int("w", 8, "field word size")
		unit    = flag.Int("unit", 128<<10, "unit size in bytes")
		trials  = flag.Int("trials", 100, "measurement trials")
		cacheP  = flag.String("cache", "", "tuning cache JSON file to update")
		logP    = flag.String("log", "", "write the full trial history as a JSON-lines tuning log")
		verbose = flag.Bool("v", false, "print every trial")
	)
	flag.Parse()

	layout, err := bitmatrix.NewLayout(*k, *r, *w, *unit)
	if err != nil {
		fatal(err)
	}
	f, err := gf.NewField(uint(*w))
	if err != nil {
		fatal(err)
	}
	coding, err := matrix.CauchyGood(f, *r, *k)
	if err != nil {
		fatal(err)
	}
	bm := bitmatrix.FromGF(coding)
	m, kDim, n := layout.ParityPlanes(), layout.DataPlanes(), layout.PlaneSize/8

	tuner, err := autotune.NewTuner(m, kDim, n, bm.At)
	if err != nil {
		fatal(err)
	}
	space := tuner.Space()
	fmt.Printf("tuning k=%d r=%d w=%d unit=%d: GEMM %dx%dx%d, space of %d schedules, %d trials\n",
		*k, *r, *w, *unit, m, kDim, n, space.Size(), *trials)

	res, err := tuner.Tune(core.DefaultParams(space), *trials)
	if err != nil {
		fatal(err)
	}
	bytesPerOp := *k * *unit
	if *verbose {
		for i, tr := range res.History {
			fmt.Printf("  trial %3d: %-55v %8.3f GB/s (best %.3f)\n", i+1, tr.Params,
				autotune.GBps(bytesPerOp, tr.Elapsed), autotune.GBps(bytesPerOp, tr.BestSoFar))
		}
	}
	fmt.Printf("best schedule: %v\n", res.Best)
	fmt.Printf("best throughput: %.3f GB/s (%v per stripe)\n", autotune.GBps(bytesPerOp, res.BestTime), res.BestTime)

	if *cacheP != "" {
		cache, err := autotune.LoadCache(*cacheP)
		if err != nil {
			fatal(err)
		}
		key := autotune.Key(m, kDim, n, runtime.GOMAXPROCS(0))
		cache.Put(key, autotune.Record{
			M: m, K: kDim, N: n,
			Params: res.Best, Elapsed: res.BestTime, Trials: len(res.History),
		})
		if err := cache.Save(*cacheP); err != nil {
			fatal(err)
		}
		fmt.Printf("saved to %s under key %q\n", *cacheP, key)
	}
	if *logP != "" {
		f, err := os.Create(*logP)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteLog(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d-trial tuning log to %s\n", len(res.History), *logP)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ectune:", err)
	os.Exit(1)
}
