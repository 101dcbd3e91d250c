// Package autotune searches the te schedule space for fast erasure-coding
// kernels, standing in for TVM's learning-based AutoScheduler (Ansor) that
// the paper's prototype tunes with (§6.1, 20 000 trials). Ansor needs a
// learned cost model because its space is too large to measure; this one
// has a few hundred points at most, so the tuner measures them directly,
// nearest-first from the schedule it starts at, and a large enough budget
// is the whole grid.
package autotune

import (
	"fmt"
	"runtime"
	"slices"

	"gemmec/internal/te"
)

// Params is one point in the schedule search space — the knobs §4.2 of the
// paper lists as the GEMM optimizations an ML library applies to the shared
// loop nest: cache tiling, loop reordering, reduction unrolling
// (multi-source fusion) and parallelization. Vectorization is always on;
// it is the word axis itself.
type Params struct {
	BlockWords int             `json:"block_words"`
	Fanin      int             `json:"fanin"`
	RowsOuter  bool            `json:"rows_outer"`
	Staged     bool            `json:"staged"`
	Parallel   te.ParallelAxis `json:"parallel"`
	Workers    int             `json:"workers"`
}

func (p Params) String() string {
	return fmt.Sprintf("{block=%dw fanin=%d rowsOuter=%v staged=%v parallel=%v workers=%d}",
		p.BlockWords, p.Fanin, p.RowsOuter, p.Staged, p.Parallel, p.Workers)
}

// Space is the set of legal Params for a problem of shape M x K x N
// (parity planes x data planes x words per plane).
type Space struct {
	M, K, N    int
	Blocks     []int // BlockWords candidates, all dividing N
	Fanins     []int // {1} plus powers of two dividing K
	MaxWorkers int
}

// NewSpace builds the default search space for a problem shape.
func NewSpace(m, k, n int) (Space, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return Space{}, fmt.Errorf("autotune: invalid shape %dx%dx%d", m, k, n)
	}
	s := Space{M: m, K: k, N: n, MaxWorkers: runtime.GOMAXPROCS(0)}
	// Tile candidates from 32 words (256 B) up to the full row, dividing N.
	for bw := 32; bw < n; bw *= 2 {
		if n%bw == 0 {
			s.Blocks = append(s.Blocks, bw)
		}
	}
	s.Blocks = append(s.Blocks, n)
	s.Fanins = []int{1}
	for _, f := range []int{2, 4, 8} {
		if k%f == 0 {
			s.Fanins = append(s.Fanins, f)
		}
	}
	return s, nil
}

// splitColumns reports whether a blockWords tile leaves a split column
// axis. Block-parallel schedules run over that axis, so whole-row tiles
// (BlockWords == N) are legal only serial or row-parallel — the one rule
// All, Check and Size share with Compile.
func (s Space) splitColumns(blockWords int) bool { return blockWords < s.N }

// Check reports why p is not a legal point of the space, naming the
// setting and the values it may take, or nil if it is one.
func (s Space) Check(p Params) error {
	switch {
	case !slices.Contains(s.Blocks, p.BlockWords):
		return fmt.Errorf("autotune: block=%dw not in %v", p.BlockWords, s.Blocks)
	case !slices.Contains(s.Fanins, p.Fanin):
		return fmt.Errorf("autotune: fanin=%d not in %v", p.Fanin, s.Fanins)
	case p.Parallel == te.ParallelNone && p.Workers != 1:
		return fmt.Errorf("autotune: parallel=%v runs workers=1, not %d", p.Parallel, p.Workers)
	case p.Workers < 1 || p.Workers > s.MaxWorkers:
		return fmt.Errorf("autotune: workers=%d outside 1..%d (GOMAXPROCS)", p.Workers, s.MaxWorkers)
	case p.Parallel == te.ParallelBlocks && !s.splitColumns(p.BlockWords):
		return fmt.Errorf("autotune: parallel=%v needs a split column axis, and block=%dw is the whole row", p.Parallel, p.BlockWords)
	}
	return nil
}

// Contains reports whether p is a legal point of the space: Check's
// yes/no form.
func (s Space) Contains(p Params) bool { return s.Check(p) == nil }

// Default returns a sensible untuned starting point (whole-row tiles, no
// fusion, serial) — what a naive lowering would do.
func (s Space) Default() Params {
	return Params{BlockWords: s.N, Fanin: 1, RowsOuter: true, Parallel: te.ParallelNone, Workers: 1}
}

// Size returns the number of points in the space (for grid enumeration and
// trial budgeting).
func (s Space) Size() int {
	perBlock := 0 // parallel-axis x workers choices, summed over tiles
	for _, bw := range s.Blocks {
		perBlock += 1 + (s.MaxWorkers - 1) // serial + row-parallel
		if s.splitColumns(bw) {
			perBlock += s.MaxWorkers - 1 // block-parallel
		}
	}
	return perBlock * len(s.Fanins) * 2 * 2
}

// All enumerates every point of the space (grid search).
func (s Space) All() []Params {
	var out []Params
	for _, bw := range s.Blocks {
		for _, f := range s.Fanins {
			for _, ro := range []bool{true, false} {
				for _, st := range []bool{false, true} {
					out = append(out, Params{BlockWords: bw, Fanin: f, RowsOuter: ro, Staged: st, Parallel: te.ParallelNone, Workers: 1})
					for w := 2; w <= s.MaxWorkers; w++ {
						out = append(out, Params{BlockWords: bw, Fanin: f, RowsOuter: ro, Staged: st, Parallel: te.ParallelRows, Workers: w})
						if s.splitColumns(bw) {
							out = append(out, Params{BlockWords: bw, Fanin: f, RowsOuter: ro, Staged: st, Parallel: te.ParallelBlocks, Workers: w})
						}
					}
				}
			}
		}
	}
	return out
}

// Compiled bundles a built kernel with its operand tensors so callers can
// bind their own buffers (the core engine binds data/parity stripes
// directly).
type Compiled struct {
	A, B, C *te.Tensor
	Kernel  *te.Kernel
	Params  Params
}

// Compile realizes a parameter point as a te schedule — split, reorder,
// vectorize, unroll, parallel — and builds it. This function is the bridge
// between the search space and the compiler, the analogue of Ansor's
// sketch instantiation.
func Compile(m, k, n int, p Params) (*Compiled, error) {
	a, b, c := te.ECComputeDecl(m, k, n)
	s := te.CreateSchedule(c)
	axes := s.Leaf()
	i, j, rk := axes[0], axes[1], axes[2]

	var jo *te.IterVar
	wordAxis := j
	if p.BlockWords < n {
		var ji *te.IterVar
		var err error
		jo, ji, err = s.Split(j, p.BlockWords)
		if err != nil {
			return nil, fmt.Errorf("autotune: block split: %w", err)
		}
		wordAxis = ji
	}
	if err := s.Vectorize(wordAxis); err != nil {
		return nil, err
	}
	if p.Fanin > 1 {
		_, ki, err := s.Split(rk, p.Fanin)
		if err != nil {
			return nil, fmt.Errorf("autotune: fanin split: %w", err)
		}
		if err := s.Unroll(ki); err != nil {
			return nil, err
		}
	}
	if !p.RowsOuter && jo != nil {
		if err := s.Reorder(jo, i); err != nil {
			return nil, err
		}
	}
	switch p.Parallel {
	case te.ParallelRows:
		if err := s.Parallel(i); err != nil {
			return nil, err
		}
	case te.ParallelBlocks:
		if jo == nil {
			return nil, fmt.Errorf("autotune: block-parallel needs a split column axis")
		}
		if err := s.Parallel(jo); err != nil {
			return nil, err
		}
	}
	if p.Staged {
		s.CacheWrite()
	}
	kern, err := te.Build(s)
	if err != nil {
		return nil, err
	}
	kern.SetWorkers(p.Workers)
	return &Compiled{A: a, B: b, C: c, Kernel: kern, Params: p}, nil
}
