// Command ectune measures kernel schedules for one erasure-code geometry
// and prints the fastest. Tuning is offline, as in the paper's prototype:
// run this once per machine and geometry, then pin the winner with
// gemmec.WithSchedule. Nothing reads a tuning result back at run time.
//
// Usage:
//
//	ectune -k 10 -r 4 -unit 131072 -trials 200 -log tune.jsonl
//	ectune -k 10 -r 4 -trials 20 -v
//
// The engine is the one gemmec.New builds (w = 8, the default Cauchy
// generator), tuned at construction: the search measures the trials
// schedules nearest core.DefaultParams, nearest first, and a budget at or
// above the space's size is the full grid. -log writes every trial as a
// JSON line, the evidence behind the winner.
package main

import (
	"flag"
	"fmt"
	"os"

	"gemmec/internal/autotune"
	"gemmec/internal/core"
)

func main() {
	var (
		k       = flag.Int("k", 10, "data units")
		r       = flag.Int("r", 4, "parity units")
		unit    = flag.Int("unit", 128<<10, "unit size in bytes")
		trials  = flag.Int("trials", 100, "measurement trials")
		logP    = flag.String("log", "", "write the full trial history as a JSON-lines tuning log")
		verbose = flag.Bool("v", false, "print every trial")
	)
	flag.Parse()
	if *trials <= 0 {
		fatal(fmt.Errorf("-trials must be positive, have %d", *trials))
	}

	eng, err := core.New(*k, *r, *unit, core.Options{TuneTrials: *trials})
	if err != nil {
		fatal(err)
	}
	res := eng.TuneResult()
	m, kDim, n := eng.Shape()
	space, err := autotune.NewSpace(m, kDim, n)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("tuned k=%d r=%d w=%d unit=%d: GEMM %dx%dx%d, space of %d schedules, %d trials\n",
		*k, *r, eng.W(), *unit, m, kDim, n, space.Size(), len(res.History))

	bytesPerOp := *k * *unit
	if *verbose {
		for i, tr := range res.History {
			fmt.Printf("  trial %3d: %-55v %8.3f GB/s (best %.3f)\n", i+1, tr.Params,
				autotune.GBps(bytesPerOp, tr.Elapsed), autotune.GBps(bytesPerOp, tr.BestSoFar))
		}
	}
	fmt.Printf("best schedule: %v\n", res.Best)
	fmt.Printf("best throughput: %.3f GB/s (%v per stripe)\n", autotune.GBps(bytesPerOp, res.BestTime), res.BestTime)

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
