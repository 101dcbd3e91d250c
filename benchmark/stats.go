package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of vs (mean of the two middles for an even
// count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs by linear
// interpolation between closest ranks.
func quartiles(vs []float64) (q1, q3 float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		hi := int(math.Ceil(x))
		return s[lo] + (s[hi]-s[lo])*(x-float64(lo))
	}
	return at(0.25), at(0.75)
}

// percentile returns the p-th percentile (0 < p < 100) of sorted by
// nearest rank.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailPercentile picks the highest of p99/p95/p90/p75 that still has at
// least ten samples beyond it — a percentile with fewer is one or two
// requests, not a tail. Below 40 samples none qualifies and the median is
// all the sample supports: it returns p = 50.
func tailPercentile(sorted []time.Duration) (p float64, v time.Duration) {
	for _, cand := range []float64{99, 95, 90, 75} {
		rank := int(math.Ceil(cand / 100 * float64(len(sorted))))
		if len(sorted)-rank >= 10 {
			return cand, percentile(sorted, cand)
		}
	}
	return 50, percentile(sorted, 50)
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mbps is decimal megabytes per second.
func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}
