// Package bench provides the measurement harness and the experiment
// registry that regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md
// for paper-vs-measured results).
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Measurement is the result of timing one operation configuration.
type Measurement struct {
	Name    string
	Ops     int           // operations executed in the timed region
	Bytes   int64         // useful bytes processed per operation
	Elapsed time.Duration // wall time of the timed region
	CPU     time.Duration // process CPU time consumed by the timed region
}

// PerOp returns mean wall time per operation.
func (m Measurement) PerOp() time.Duration {
	if m.Ops == 0 {
		return 0
	}
	return m.Elapsed / time.Duration(m.Ops)
}

// GBps returns throughput in decimal gigabytes of useful data per second.
func (m Measurement) GBps() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Bytes) * float64(m.Ops) / m.Elapsed.Seconds() / 1e9
}

// CPUPerGB returns CPU seconds consumed per decimal gigabyte processed —
// the §7.2 efficiency metric.
func (m Measurement) CPUPerGB() float64 {
	totalGB := float64(m.Bytes) * float64(m.Ops) / 1e9
	if totalGB == 0 {
		return 0
	}
	return m.CPU.Seconds() / totalGB
}

// Measure times f: a warmup call, then repeated calls until minTime wall
// time has accumulated (at least one call). bytesPerOp is the useful data
// per call for throughput accounting.
func Measure(name string, bytesPerOp int, minTime time.Duration, f func() error) (Measurement, error) {
	if err := f(); err != nil {
		return Measurement{}, fmt.Errorf("bench %s: warmup: %w", name, err)
	}
	ops := 0
	cpu0 := cpuNow()
	start := time.Now()
	var elapsed time.Duration
	for elapsed < minTime {
		if err := f(); err != nil {
			return Measurement{}, fmt.Errorf("bench %s: %w", name, err)
		}
		ops++
		elapsed = time.Since(start)
	}
	return Measurement{
		Name:    name,
		Ops:     ops,
		Bytes:   int64(bytesPerOp),
		Elapsed: elapsed,
		CPU:     cpuNow() - cpu0,
	}, nil
}

// Alt is one alternative in a Compare run.
type Alt struct {
	Name  string
	Bytes int // useful bytes per call
	F     func() error
}

// Compare measures alternatives round-robin — one call of each per round —
// and reports each alternative's minimum per-call time. Interleaving with a
// min estimator cancels the drift and cache-warming order effects that
// back-to-back measurement suffers from, which matters for close
// comparisons like the §5 memcpy-overhead experiment.
func Compare(minTime time.Duration, alts []Alt) ([]Measurement, error) {
	out := make([]Measurement, len(alts))
	for i, a := range alts {
		if err := a.F(); err != nil { // warmup
			return nil, fmt.Errorf("bench %s: warmup: %w", a.Name, err)
		}
		out[i] = Measurement{Name: a.Name, Ops: 1, Bytes: int64(a.Bytes), Elapsed: 1 << 62}
	}
	start := time.Now()
	for time.Since(start) < minTime {
		for i, a := range alts {
			t0 := time.Now()
			if err := a.F(); err != nil {
				return nil, fmt.Errorf("bench %s: %w", a.Name, err)
			}
			if d := time.Since(t0); d < out[i].Elapsed {
				out[i].Elapsed = d
			}
		}
	}
	return out, nil
}

// Latencies runs f n times and returns the sorted per-call durations.
func Latencies(n int, f func() error) ([]time.Duration, error) {
	if err := f(); err != nil { // warmup
		return nil, err
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Percentile returns the p-th percentile (0..100) of sorted durations.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// RandomBytes returns size deterministic pseudo-random bytes for workloads.
func RandomBytes(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}
