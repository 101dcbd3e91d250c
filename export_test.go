package gemmec

import "testing"

// StreamWorkers is how this package's tests, fuzz targets and benchmarks
// pick a stream's mode by worker count, a stream having no worker option
// of its own: n == 1 is the inline path — an option that sets nothing —
// and n > 1 is WithStreamScheduler on a pool of n workers that tb.Cleanup
// closes.
func StreamWorkers(tb testing.TB, n int) StreamOption {
	if n == 1 {
		return func(*streamConfig) error { return nil }
	}
	s := NewScheduler(SchedulerConfig{Workers: n})
	tb.Cleanup(s.Close)
	return WithStreamScheduler(s)
}
