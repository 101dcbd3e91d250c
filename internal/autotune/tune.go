package autotune

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"gemmec/internal/te"
)

// Trial records one measured schedule.
type Trial struct {
	Params  Params        `json:"params"`
	Elapsed time.Duration `json:"elapsed"`
	// BestSoFar is the best (lowest) elapsed seen up to and including this
	// trial, for the E-TUNE convergence curve.
	BestSoFar time.Duration `json:"best_so_far"`
}

// Result is the outcome of a tuning run.
type Result struct {
	Best     Params
	BestTime time.Duration
	History  []Trial
}

// WriteLog streams the full trial history as JSON lines — the analogue of a
// TVM tuning log, which records every measured schedule rather than only
// the winner so later analyses can replay it.
func (r *Result) WriteLog(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, t := range r.History {
		if err := enc.Encode(t); err != nil {
			return fmt.Errorf("autotune: write log: %w", err)
		}
	}
	return nil
}

// ReadLog parses a JSON-lines tuning log back into trial history and
// recomputes the best entry.
func ReadLog(rd io.Reader) (*Result, error) {
	dec := json.NewDecoder(rd)
	res := &Result{BestTime: time.Duration(math.MaxInt64)}
	for {
		var t Trial
		if err := dec.Decode(&t); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("autotune: read log: %w", err)
		}
		res.History = append(res.History, t)
		if t.Elapsed > 0 && t.Elapsed < res.BestTime {
			res.BestTime = t.Elapsed
			res.Best = t.Params
		}
	}
	if len(res.History) == 0 {
		return nil, errors.New("autotune: empty tuning log")
	}
	return res, nil
}

// GBps converts a per-call duration into encode throughput given the bytes
// encoded per call.
func GBps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e9
}

// Measurement controls: each trial is the minimum of repeats runs after
// warmup runs (minimum-of-N is the standard noise-robust estimator for
// microbenchmarks).
const (
	warmup  = 1
	repeats = 3
)

// Tuner searches the schedule space for one problem instance. The mask
// (generator selection lists) is part of the instance: real tuning runs use
// the actual code's bitmatrix, so measured times reflect its XOR density.
type Tuner struct {
	M, K, N int
	space   Space
	mask    func(i, j int) bool
}

// NewTuner builds a tuner for an M x K x N problem whose generator bit
// (i, j) is given by mask.
func NewTuner(m, k, n int, mask func(i, j int) bool) (*Tuner, error) {
	space, err := NewSpace(m, k, n)
	if err != nil {
		return nil, err
	}
	return &Tuner{M: m, K: k, N: n, space: space, mask: mask}, nil
}

// Space returns the tuner's search space.
func (t *Tuner) Space() Space { return t.space }

// measure compiles and times one parameter point. The B operand gets a
// fixed fill: XOR time does not depend on the data values, only on the
// bytes being real, touched memory.
func (t *Tuner) measure(p Params) (time.Duration, error) {
	comp, err := Compile(t.M, t.K, t.N, p)
	if err != nil {
		return 0, err
	}
	aBuf := te.NewBuffer(comp.A)
	if err := te.PackMask(aBuf, t.M, t.K, t.mask); err != nil {
		return 0, err
	}
	bBuf := te.NewBuffer(comp.B)
	for i := range bBuf {
		bBuf[i] = byte(i)
	}
	bind := te.Bindings{comp.A: aBuf, comp.B: bBuf, comp.C: te.NewBuffer(comp.C)}

	for w := 0; w < warmup; w++ {
		if err := comp.Kernel.Exec(bind); err != nil {
			return 0, err
		}
	}
	best := time.Duration(math.MaxInt64)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		if err := comp.Kernel.Exec(bind); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// knobsApart counts the schedule knobs on which a and b differ: block,
// fanin, traversal order, staging, and the parallel axis together with
// its worker count.
func knobsApart(a, b Params) int {
	n := 0
	for _, differ := range []bool{
		a.BlockWords != b.BlockWords,
		a.Fanin != b.Fanin,
		a.RowsOuter != b.RowsOuter,
		a.Staged != b.Staged,
		a.Parallel != b.Parallel || a.Workers != b.Workers,
	} {
		if differ {
			n++
		}
	}
	return n
}

// nearestFirst returns every point of the space, stably sorted by how many
// knobs differ from from: from itself, then its one-knob neighbours, and
// so on out to the far corners of the grid.
func (s Space) nearestFirst(from Params) []Params {
	all := s.All()
	sort.SliceStable(all, func(i, j int) bool {
		return knobsApart(all[i], from) < knobsApart(all[j], from)
	})
	return all
}

// Tune measures the first min(trials, Size) points of the space in
// nearest-first order from from — a legal point, usually the schedule
// already live — and returns the fastest plus the full history. Trial 1
// is from itself, so the result never measured slower than the start; a
// budget at or above Size is the full grid. The search has no randomness:
// the same shape and the same from give the same trial sequence.
func (t *Tuner) Tune(from Params, trials int) (*Result, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("autotune: trials must be positive")
	}
	if !t.space.Contains(from) {
		return nil, fmt.Errorf("autotune: start schedule %v is not in the space", from)
	}
	res := &Result{BestTime: time.Duration(math.MaxInt64)}
	order := t.space.nearestFirst(from)
	for _, p := range order[:min(trials, len(order))] {
		d, err := t.measure(p)
		if err != nil {
			return nil, err
		}
		if d < res.BestTime {
			res.BestTime = d
			res.Best = p
		}
		res.History = append(res.History, Trial{Params: p, Elapsed: d, BestSoFar: res.BestTime})
	}
	return res, nil
}
