// Command benchmark is the ladder: one benchmark that prices a gemmec PUT
// and GET end to end and every layer under them.
//
// It starts the daemon stack in process on 127.0.0.1:0, drives it from a
// closed-loop client that verifies every byte it reads back, and prints
// every metric by name with its unit. With -trace 0 (the default) it
// measures the end-to-end metrics of the chosen workloads; with -trace 1
// it runs the ladder pass and the fixed-count traced run and prints the
// per-layer metrics. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. See README.md in
// this directory for the glossary and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	traceOut  string
	selfcheck bool
	smoke     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "payload and offset seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per workload (-trace 0) or time budget of the ladder pass (-trace 1)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: ladder pass + traced run, per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "where -trace 1 writes its spans as JSON lines (default <scratch>/trace.jsonl)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced set twice on this binary (A/A) and fail if any gated metric differs by more than its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny objects, one round, about a second per workload: exercises the harness, measures nothing")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// scratchRoot is benchmark/.bench_tmp whether the command runs from the
// repository root (`go run ./benchmark`-style, the BENCHMARK.json command)
// or from inside benchmark/ (`go run .`, `go test`).
func scratchRoot() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", ".bench_tmp")
	}
	return ".bench_tmp"
}

// result is what one run reports: the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options, out io.Writer) int {
	prof := &fullProfile
	if o.smoke {
		prof = &smokeProfile
	}
	var specs []*workloadSpec
	if o.workload == "all" {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	} else if spec := findWorkload(o.workload); spec != nil {
		specs = []*workloadSpec{spec}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have all, %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}

	root := scratchRoot()
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// This run's directory and every store root made in it each land in a
	// block group of their own (see spreadChildren).
	spreadChildren(root)
	scratch, err := os.MkdirTemp(root, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	spread := spreadChildren(scratch)
	// Scratch goes on every exit: return, error, SIGINT or SIGTERM.
	defer os.RemoveAll(scratch)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	finished := make(chan struct{})
	go func() {
		select {
		case <-sig:
			os.RemoveAll(scratch)
			os.Exit(130)
		case <-finished:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(finished)
	}()

	fmt.Fprintln(out, stamp(root, spread, o.seed, prof, o.seconds))
	fmt.Fprintln(out, "Working sets fit the OS page cache and the program's own caches (metadata cache, decoder LRU):")
	fmt.Fprintln(out, "latencies are this sandbox's, not a device's. The load generator runs in this process, so its CPU")
	fmt.Fprintln(out, "is inside cpu_s_per_gb. Tuner off, no background scrubber; closed loop; every byte read is verified.")

	var res result
	switch {
	case o.selfcheck:
		res, err = selfcheck(specs, prof, o, scratch, out)
	case o.trace == 1:
		traceOut := o.traceOut
		if traceOut == "" {
			traceOut = filepath.Join(root, "trace.jsonl")
		}
		res, err = traced(specs, prof, o, scratch, traceOut, out)
	default:
		var runners []*runner
		if runners, err = untraced(specs, prof, o, scratch); err == nil {
			res = report(runners, out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// untraced measures the end-to-end metrics: set up every workload, warm
// each, then run the rounds interleaved across workloads so slow drift of
// the machine lands on all of them alike.
func untraced(specs []*workloadSpec, prof *profile, o options, scratch string) ([]*runner, error) {
	var runners []*runner
	defer func() {
		for _, r := range runners {
			r.teardown()
		}
	}()
	for _, spec := range specs {
		r := newRunner(spec, prof, o.seed, scratch, nil)
		runners = append(runners, r)
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
	}
	for _, r := range runners {
		r.warm()
	}
	per := time.Duration(o.seconds) * time.Second / time.Duration(prof.rounds)
	for i := 0; i < prof.rounds; i++ {
		for _, r := range runners {
			r.round(per)
		}
	}
	for _, r := range runners {
		r.finish()
	}
	return runners, nil
}

// key names a metric in the result: bare for a single workload, prefixed
// when one invocation ran several.
func key(workload, metric string, many bool) string {
	if many {
		return workload + "/" + metric
	}
	return metric
}

// report prints each workload's end-to-end metrics with their spread over
// the rounds and builds the result line.
func report(runners []*runner, out io.Writer) result {
	res := result{Metrics: map[string]metricValue{}}
	many := len(runners) > 1
	for _, r := range runners {
		fmt.Fprintf(out, "\n== %s · %d client(s), closed loop ==\n%s\n", r.spec.name, r.spec.clients, r.spec.why)
		values := r.endToEnd()
		series := map[string][]float64{"setup_s": r.setupS, "cpu_s_per_gb": r.roundCPU}
		samples := map[string]int{}
		for _, p := range r.phases {
			series[p.metric+"_mbps"], series[p.metric+"_p50_ms"] = p.cycleMB, p.roundP50
			samples[p.metric+"_mbps"], samples[p.metric+"_p50_ms"] = len(p.lat), len(p.lat)
		}
		fmt.Fprintf(out, "  %-20s %12s %-6s %-28s %s\n", "metric", "median", "unit", "quartiles of N samples", "from")
		for _, def := range endToEndMetrics {
			v := values[def.name]
			res.Metrics[key(r.spec.name, def.name, many)] = metricValue{v, def.unit}
			spread := ""
			if s := series[def.name]; len(s) > 1 {
				q1, q3 := quartiles(s)
				spread = fmt.Sprintf("[%.4g .. %.4g] of %d", q1, q3, len(s))
			}
			n := ""
			if c := samples[def.name]; c > 0 {
				n = fmt.Sprintf("%d requests", c)
			}
			fmt.Fprintf(out, "  %-20s %12.4f %-6s %-28s %s\n", def.name, v, def.unit, spread, n)
		}
		for _, p := range r.phases {
			if _, gated := res.Metrics[key(r.spec.name, p.metric+"_p50_ms", many)]; !gated {
				q1, q3 := quartiles(p.roundP50)
				fmt.Fprintf(out, "  %s_p50_ms, reported only: %.4f ms [%.4g .. %.4g] of %d rounds, %d requests\n",
					p.metric, values[p.metric+"_p50_ms"], q1, q3, len(p.roundP50), len(p.lat))
			}
			fmt.Fprintf(out, "  %s p50 by round: %.4g ms\n", p.metric, p.roundP50)
			sorted := append([]time.Duration(nil), p.lat...)
			sortDurations(sorted)
			if pct, v := tailPercentile(sorted); pct > 50 {
				fmt.Fprintf(out, "  %s tail, reported only: p%g = %.3f ms of %d requests\n", p.metric, pct, ms(v), len(sorted))
			}
		}
		fmt.Fprintf(out, "  set-ups: %.4g s\n", r.setupS)
		fmt.Fprintf(out, "  attempted %d, failed %d\n", r.attempted.Load(), r.failed.Load())
		for _, e := range r.firstErrs {
			fmt.Fprintf(out, "  FAILED: %s\n", e)
		}
		res.Attempted += r.attempted.Load()
		res.Failed += r.failed.Load()
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// traced runs the ladder pass and the traced run for each workload, prints
// every per-layer metric, and writes the spans.
func traced(specs []*workloadSpec, prof *profile, o options, scratch, traceOut string, out io.Writer) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	many := len(specs) > 1
	var recs []*recorder
	for _, spec := range specs {
		tr, err := runTraced(spec, prof, o.seed, scratch, time.Duration(o.seconds)*time.Second)
		if err != nil {
			return res, fmt.Errorf("%s: traced run: %w", spec.name, err)
		}
		recs = append(recs, tr.recorders...)
		fmt.Fprintf(out, "\n== %s · traced run, 1 client, %d requests per phase, and the ladder pass on %d MiB ==\n",
			spec.name, tracedCount(spec, prof), prof.ladderPayload>>20)
		fmt.Fprintf(out, "  %-34s %14s %s\n", "metric", "value", "unit")
		for _, def := range perLayerMetrics {
			v := tr.metrics[def.name]
			res.Metrics[key(spec.name, def.name, many)] = metricValue{v, def.unit}
			fmt.Fprintf(out, "  %-34s %14.4f %s\n", def.name, v, def.unit)
		}
		for _, n := range tr.notes {
			fmt.Fprintf(out, "  note: %s\n", n)
		}
		printLadder(tr.metrics, out)
		fmt.Fprintf(out, "  attempted %d, failed %d\n", tr.attempted, tr.failed)
		for _, e := range tr.errs {
			fmt.Fprintf(out, "  FAILED: %s\n", e)
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
	}
	if err := writeTrace(traceOut, recs); err != nil {
		return res, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(out, "\nspans written to %s\n", traceOut)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// printLadder shows the PUT direction of the ladder, each rung with its
// ratio to the rung below.
func printLadder(m map[string]float64, out io.Writer) {
	rungs := []string{"floor.memcpy_mbps", "te.encode_mbps", "core.encode_mbps", "pipeline.encode_mbps",
		"shardfile.write_mbps", "store.put_mbps", "http.put_mbps", "gateway.put_mbps"}
	fmt.Fprintln(out, "  ladder, PUT direction (MB/s of user payload; ratio to the rung below):")
	for i, name := range rungs {
		ratio := ""
		if i > 0 && m[rungs[i-1]] > 0 {
			ratio = fmt.Sprintf("  x%.3f of %s", m[name]/m[rungs[i-1]], strings.TrimSuffix(rungs[i-1], "_mbps"))
		}
		fmt.Fprintf(out, "    %-24s %10.1f%s\n", strings.TrimSuffix(name, "_mbps"), m[name], ratio)
	}
}

// selfcheck runs the untraced set twice on this binary and compares every
// gated metric of every workload with its bound: the A/A check the bounds
// in BENCHMARK.json were fixed with.
func selfcheck(specs []*workloadSpec, prof *profile, o options, scratch string, out io.Writer) (result, error) {
	var sides [2]map[string]float64
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for side := range sides {
		runners, err := untraced(specs, prof, o, scratch)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(out, "\n#### A/A side %c\n", 'A'+side)
		r := report(runners, out)
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		sides[side] = map[string]float64{}
		for k, v := range r.Metrics {
			sides[side][k] = v.Value
		}
		if side == 1 {
			res.Metrics = r.Metrics
		}
	}
	fmt.Fprintf(out, "\n#### A/A comparison (B against A; worse = in the metric's bad direction)\n")
	fmt.Fprintf(out, "  %-44s %12s %12s %9s %7s\n", "workload/metric", "A", "B", "worse by", "bound")
	keys := make([]string, 0, len(sides[0]))
	for k := range sides[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	within := true
	for _, k := range keys {
		def := endToEndDef(k)
		a, b := sides[0][k], sides[1][k]
		worse := 0.0
		if a != 0 {
			worse = (b - a) / a
			if def.better == "higher" {
				worse = -worse
			}
		}
		verdict := ""
		if worse > def.bound {
			verdict = "  EXCEEDS"
			within = false
		}
		fmt.Fprintf(out, "  %-44s %12.4f %12.4f %8.2f%% %6.0f%%%s\n", k, a, b, 100*worse, 100*def.bound, verdict)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && within
	return res, nil
}

// endToEndDef finds the definition behind a result key.
func endToEndDef(k string) metricDef {
	if i := strings.LastIndex(k, "/"); i >= 0 {
		k = k[i+1:]
	}
	for _, d := range endToEndMetrics {
		if d.name == k {
			return d
		}
	}
	return metricDef{}
}
