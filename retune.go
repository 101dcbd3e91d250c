package gemmec

import (
	"errors"
	"sync"
	"time"

	"gemmec/internal/autotune"
)

// RetuneReport summarizes one serving-loop retune: what the search found,
// whether the live executor was swapped, and the predicted-vs-measured
// throughput that tells an operator whether the tuner's scratch timing
// held up on the live executor.
type RetuneReport struct {
	// Trials is how many schedule points the search measured.
	Trials int
	// Best is the winning schedule (now live when Swapped).
	Best Schedule
	// Swapped reports whether the winning schedule differs from the one
	// that was live before the retune. The executor is re-installed (and
	// the generation bumped) either way — see Retune.
	Swapped bool
	// Generation is the code's executor generation after the retune.
	Generation int64
	// PredictedGBps is the throughput of the best trial as measured on the
	// tuner's scratch operands.
	PredictedGBps float64
	// MeasuredGBps is the throughput re-measured on the live executor after
	// the swap (or on the unchanged executor when not swapped).
	MeasuredGBps float64
}

// tuneFileMu serializes load-modify-save cycles on tuning-cache files so
// concurrent Codes sharing one -tune-cache path cannot drop each other's
// records.
var tuneFileMu sync.Mutex

// Retune runs a bounded autotuner search for this code's shape and
// hot-swaps the compiled executor when the search beats the live schedule.
// The search is restricted to serial schedules — in a daemon the stripe
// scheduler owns parallelism, and a kernel spawning its own goroutines
// would allocate per stripe and oversubscribe the pool. It measures the
// trials points nearest the live schedule, the live one first, so it never
// installs a schedule that measured slower than the live one, and repeated
// retunes climb from where the last one left off. In-flight
// Encode/Decode streams are unaffected: stripes that already loaded the
// old executor finish on it, subsequent stripes use the new one.
//
// When the code was built with WithTuningCache, the result is persisted to
// the same file so the next boot starts from it. Concurrent Retune calls
// on one Code serialize; the data path never blocks on them.
func (c *Code) Retune(trials int) (RetuneReport, error) {
	if trials <= 0 {
		return RetuneReport{}, errors.New("gemmec: retune trials must be positive")
	}
	c.retuneMu.Lock()
	defer c.retuneMu.Unlock()

	tuner, err := c.eng.NewTuner()
	if err != nil {
		return RetuneReport{}, err
	}
	tuner.SerialOnly()
	live := c.eng.Params()
	res, err := tuner.Tune(tuner.Space().Nearest(live), trials)
	if err != nil {
		return RetuneReport{}, err
	}
	rep := RetuneReport{
		Trials:        len(res.History),
		Best:          fromParams(res.Best),
		PredictedGBps: autotune.GBps(c.DataSize(), res.BestTime),
	}
	// Install unconditionally: the generation counter then counts retunes
	// that reached the live path (what an operator wants to see move), and
	// Swapped distinguishes "schedule changed" from "search re-confirmed
	// the live one". The compile is idle-window work and costs ~ms.
	if err := c.eng.Reschedule(res.Best); err != nil {
		return rep, err
	}
	rep.Swapped = res.Best != live
	rep.Generation = c.eng.Generation()
	rep.MeasuredGBps = autotune.GBps(c.DataSize(), c.measureEncode(3))
	c.lastTune = res
	if c.cacheFile != "" {
		if err := c.saveTuningLocked(res); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// measureEncode times the live executor on pooled scratch operands,
// returning the minimum of reps runs after one warmup — the same
// noise-robust estimator the tuner uses, but on the executor that actually
// serves traffic.
func (c *Code) measureEncode(reps int) time.Duration {
	buf := c.getScratch()
	defer c.scratch.Put(buf)
	data := (*buf)[:c.DataSize()]
	parity := (*buf)[c.DataSize() : c.DataSize()+c.ParitySize()]
	best := time.Duration(0)
	for i := 0; i <= reps; i++ {
		start := time.Now()
		if err := c.eng.Encode(data, parity); err != nil {
			return 0
		}
		if d := time.Since(start); i > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	return best
}

// ApplySchedule hot-swaps the compiled executor to an explicit schedule,
// which must be legal for this code's shape. Like Retune, the swap is
// atomic with respect to in-flight streams.
func (c *Code) ApplySchedule(s Schedule) error {
	p, err := s.toParams()
	if err != nil {
		return err
	}
	return c.eng.Reschedule(p)
}

// Generation returns how many times the executor has been hot-swapped
// since New (0 = still on the construction-time schedule).
func (c *Code) Generation() int64 { return c.eng.Generation() }

// SaveTuning persists the most recent Retune result to the code's tuning
// cache file. It is a no-op when the code has no cache file or has not
// retuned — shutdown hooks call it unconditionally.
func (c *Code) SaveTuning() error {
	c.retuneMu.Lock()
	defer c.retuneMu.Unlock()
	if c.cacheFile == "" || c.lastTune == nil {
		return nil
	}
	return c.saveTuningLocked(c.lastTune)
}

// saveTuningLocked load-modify-saves the cache file under the package file
// mutex; caller holds c.retuneMu.
func (c *Code) saveTuningLocked(res *autotune.Result) error {
	tuneFileMu.Lock()
	defer tuneFileMu.Unlock()
	cache, err := autotune.LoadCache(c.cacheFile)
	if err != nil {
		return err
	}
	m, kDim, n := c.eng.Shape()
	cache.Put(c.cacheKey, autotune.Record{
		M: m, K: kDim, N: n,
		Params: res.Best, Elapsed: res.BestTime, Trials: len(res.History),
	})
	return cache.Save(c.cacheFile)
}
