// Command ecbench regenerates the tables and figures of "Rethinking
// Erasure-Coding Libraries in the Age of Optimized Machine Learning"
// (HotStorage '24) on this machine. Each experiment ID corresponds to one
// row of the per-experiment index in DESIGN.md; EXPERIMENTS.md records
// paper-vs-measured outcomes.
//
// Usage:
//
//	ecbench -list
//	ecbench -exp f2
//	ecbench -exp all -quick
//	ecbench -exp f2,memcpy -unit 65536 -mintime 100ms -trials 20
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"gemmec/internal/bench"
)

func main() {
	var (
		expList = flag.String("exp", "", "comma-separated experiment IDs, or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		quick   = flag.Bool("quick", false, "quick smoke-scale configuration")
		unit    = flag.Int("unit", 0, "override unit size in bytes")
		minTime = flag.Duration("mintime", 0, "override per-measurement wall budget")
		trials  = flag.Int("trials", -1, "override autotune trials (0 = pretuned default schedule)")
		samples = flag.Int("latency-samples", 0, "override latency sample count")
		seed    = flag.Int64("seed", 0, "override workload seed")
		jsonOut = flag.String("json", "", "also write machine-readable results to this file (load-json)")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-8s %-52s [%s]\n", e.ID, e.Title, e.Paper)
		}
		return
	}
	if *expList == "" {
		fmt.Fprintln(os.Stderr, "ecbench: -exp required (or -list); e.g. -exp f2 or -exp all")
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *unit > 0 {
		cfg.UnitSize = *unit
	}
	if *minTime > 0 {
		cfg.MinTime = *minTime
	}
	if *trials >= 0 {
		cfg.TuneTrials = *trials
	}
	if *samples > 0 {
		cfg.LatencySamples = *samples
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *jsonOut != "" {
		cfg.JSONPath = *jsonOut
	}

	var exps []bench.Experiment
	if *expList == "all" {
		exps = bench.All()
	} else {
		for _, id := range strings.Split(*expList, ",") {
			e, err := bench.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "ecbench:", err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	fmt.Printf("# gemmec experiment harness\n")
	fmt.Printf("# %s/%s, %d cpus, unit=%d bytes, mintime=%v, tune-trials=%d\n\n",
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), cfg.UnitSize, cfg.MinTime, cfg.TuneTrials)

	start := time.Now()
	for _, e := range exps {
		fmt.Printf("=== %s (%s)\n", e.ID, e.Paper)
		if err := e.Run(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "ecbench: experiment %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
	fmt.Printf("# total wall time %v\n", time.Since(start).Round(time.Millisecond))
}
