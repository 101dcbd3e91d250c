// Package gemmec is an erasure-coding library built the way "Rethinking
// Erasure-Coding Libraries in the Age of Optimized Machine Learning"
// (HotStorage '24) proposes: the code is declared as a GEMM-shaped tensor
// expression — XOR for summation, AND for multiplication — and compiled and
// autotuned by an ML-style tensor compiler (internal/te + internal/autotune,
// this repository's stand-in for Apache TVM).
//
// # Quick start
//
//	code, err := gemmec.New(10, 4)                    // k=10 data, r=4 parity
//	data := make([]byte, code.DataSize())             // contiguous stripe
//	parity := make([]byte, code.ParitySize())
//	err = code.Encode(data, parity)
//
// Units are fixed-size (default 128 KiB, the paper's evaluation size); the
// data stripe holds the k units back to back. For chunk-at-a-time arrival,
// use NewStripeBuffer, which implements the contiguous-assembly pattern of
// §5 of the paper. To rebuild lost units, pass all k+r units with nil for
// the losses to Reconstruct.
package gemmec

import (
	"errors"
	"fmt"
	"sync"

	"gemmec/internal/autotune"
	"gemmec/internal/core"
	"gemmec/internal/stripe"
	"gemmec/internal/te"
)

// DefaultUnitSize is the unit size used when WithUnitSize is not given:
// 128 KiB, the size the paper's evaluation encodes.
const DefaultUnitSize = 128 << 10

// Schedule describes the compiled kernel's loop optimizations in public
// terms. It mirrors the autotuner's parameter space: cache tiling of the
// plane axis, multi-source XOR fusion on the reduction axis, traversal
// order, and multicore execution.
type Schedule struct {
	// BlockBytes is the cache tile of each parity plane processed per pass.
	BlockBytes int
	// Fanin is how many source planes are XORed per pass (1, 2, 4 or 8).
	Fanin int
	// TilesOuter walks tiles in the outer loop (sources stay cache-resident
	// across parity rows) rather than rows.
	TilesOuter bool
	// Staged accumulates each output tile in a local buffer and writes it
	// back once (TVM's cache_write).
	Staged bool
	// Parallel is "", "rows" or "tiles".
	Parallel string
	// Workers is the goroutine count when Parallel is set.
	Workers int
}

func (s Schedule) toParams() (autotune.Params, error) {
	if s.BlockBytes%8 != 0 {
		return autotune.Params{}, fmt.Errorf("gemmec: schedule block bytes %d must be a multiple of 8", s.BlockBytes)
	}
	p := autotune.Params{
		BlockWords: s.BlockBytes / 8,
		Fanin:      s.Fanin,
		RowsOuter:  !s.TilesOuter,
		Staged:     s.Staged,
		Workers:    s.Workers,
	}
	switch s.Parallel {
	case "":
		p.Parallel = te.ParallelNone
		if p.Workers == 0 {
			p.Workers = 1
		}
	case "rows":
		p.Parallel = te.ParallelRows
	case "tiles":
		p.Parallel = te.ParallelBlocks
	default:
		return autotune.Params{}, fmt.Errorf("gemmec: unknown parallel axis %q (want rows or tiles)", s.Parallel)
	}
	return p, nil
}

func fromParams(p autotune.Params) Schedule {
	s := Schedule{
		BlockBytes: p.BlockWords * 8,
		Fanin:      p.Fanin,
		TilesOuter: !p.RowsOuter,
		Staged:     p.Staged,
		Workers:    p.Workers,
	}
	switch p.Parallel {
	case te.ParallelRows:
		s.Parallel = "rows"
	case te.ParallelBlocks:
		s.Parallel = "tiles"
	}
	return s
}

type config struct {
	unitSize     int
	w            int
	construction core.Construction
	schedule     *Schedule
	tuneTrials   int
	cacheFile    string
	workers      int
}

// Option configures New.
type Option func(*config) error

// WithUnitSize sets the unit size in bytes; it must be a positive multiple
// of 8*w.
func WithUnitSize(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return errors.New("gemmec: unit size must be positive")
		}
		c.unitSize = n
		return nil
	}
}

// WithWordSize sets the Galois field word size w (4, 8 or 16; default 8).
func WithWordSize(w int) Option {
	return func(c *config) error {
		c.w = w
		return nil
	}
}

// WithConstruction selects the generator family: "cauchy-good" (default),
// "cauchy", "cauchy-best" (ones-minimizing generator search) or
// "vandermonde".
func WithConstruction(name string) Option {
	return func(c *config) error {
		switch name {
		case "cauchy-good":
			c.construction = core.ConstructionCauchyGood
		case "cauchy":
			c.construction = core.ConstructionCauchy
		case "cauchy-best":
			c.construction = core.ConstructionCauchyBest
		case "vandermonde":
			c.construction = core.ConstructionVandermonde
		default:
			return fmt.Errorf("gemmec: unknown construction %q", name)
		}
		return nil
	}
}

// WithSchedule pins an explicit kernel schedule, bypassing tuning.
func WithSchedule(s Schedule) Option {
	return func(c *config) error {
		c.schedule = &s
		return nil
	}
}

// WithAutotune runs the schedule autotuner for the given number of trials
// at construction time (unless a tuning-cache hit already covers this
// geometry).
func WithAutotune(trials int) Option {
	return func(c *config) error {
		if trials <= 0 {
			return errors.New("gemmec: autotune trials must be positive")
		}
		c.tuneTrials = trials
		return nil
	}
}

// WithTuningCache persists and reuses tuned schedules in a JSON file, the
// equivalent of a TVM tuning log.
func WithTuningCache(path string) Option {
	return func(c *config) error {
		if path == "" {
			return errors.New("gemmec: tuning cache path empty")
		}
		c.cacheFile = path
		return nil
	}
}

// WithWorkers caps the goroutines parallel schedules use.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return errors.New("gemmec: workers must be positive")
		}
		c.workers = n
		return nil
	}
}

// Code is a systematic (k+r, k) erasure code with a compiled GEMM kernel.
// Its schedule is fixed at New; it is safe for concurrent use.
type Code struct {
	eng     *core.Engine
	scratch sync.Pool // *[]byte stripes for the sharded APIs
}

// New builds a code for k data units and r parity units.
func New(k, r int, opts ...Option) (*Code, error) {
	cfg := config{unitSize: DefaultUnitSize, w: 8}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	eopts := core.Options{
		W:            cfg.w,
		Construction: cfg.construction,
		TuneTrials:   cfg.tuneTrials,
		Workers:      cfg.workers,
	}
	if cfg.schedule != nil {
		p, err := cfg.schedule.toParams()
		if err != nil {
			return nil, err
		}
		eopts.Params = &p
	}
	var cache *autotune.Cache
	if cfg.cacheFile != "" {
		var err error
		cache, err = autotune.LoadCache(cfg.cacheFile)
		if err != nil {
			return nil, err
		}
		eopts.Cache = cache
	}
	eng, err := core.New(k, r, cfg.unitSize, eopts)
	if err != nil {
		return nil, err
	}
	if cache != nil && eng.TuneResult() != nil {
		if err := cache.Save(cfg.cacheFile); err != nil {
			return nil, err
		}
	}
	return &Code{eng: eng}, nil
}

// K returns the number of data units.
func (c *Code) K() int { return c.eng.K() }

// R returns the number of parity units.
func (c *Code) R() int { return c.eng.R() }

// W returns the Galois field word size.
func (c *Code) W() int { return c.eng.W() }

// UnitSize returns the unit size in bytes.
func (c *Code) UnitSize() int { return c.eng.UnitSize() }

// DataSize returns the contiguous data stripe size, k*UnitSize.
func (c *Code) DataSize() int { return c.eng.K() * c.eng.UnitSize() }

// ParitySize returns the contiguous parity stripe size, r*UnitSize.
func (c *Code) ParitySize() int { return c.eng.R() * c.eng.UnitSize() }

// Schedule returns the kernel schedule in use (tuned, cached, pinned or
// default).
func (c *Code) Schedule() Schedule { return fromParams(c.eng.Params()) }

// LoweredIR returns the compiled kernel's loop IR as text, for inspecting
// what the "compiler" did with the declaration.
func (c *Code) LoweredIR() (string, error) { return c.eng.LoweredIR() }

// Encode computes the parity stripe from a contiguous data stripe. This is
// the zero-copy fast path: both buffers are bound directly to the kernel.
func (c *Code) Encode(data, parity []byte) error { return c.eng.Encode(data, parity) }

// Verify recomputes parity and reports whether it matches.
func (c *Code) Verify(data, parity []byte) (bool, error) { return c.eng.Verify(data, parity) }

// EncodeShards encodes when units live in separate allocations: data is
// gathered into an internal contiguous stripe first (the copy §5 of the
// paper quantifies), parity is computed contiguously and scattered back to
// shards[k:]. shards must hold k+r slices of UnitSize bytes.
func (c *Code) EncodeShards(shards [][]byte) error {
	k, r, unit := c.K(), c.R(), c.UnitSize()
	if len(shards) != k+r {
		return fmt.Errorf("%w: %d shards, want k+r=%d", ErrShardCount, len(shards), k+r)
	}
	for i, s := range shards {
		if len(s) != unit {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(s), unit)
		}
	}
	buf := c.getScratch()
	defer c.scratch.Put(buf)
	stripeBuf := (*buf)[:c.DataSize()]
	parityBuf := (*buf)[c.DataSize() : c.DataSize()+c.ParitySize()]
	for i := 0; i < k; i++ {
		copy(stripeBuf[i*unit:], shards[i])
	}
	if err := c.eng.Encode(stripeBuf, parityBuf); err != nil {
		return err
	}
	for i := 0; i < r; i++ {
		copy(shards[k+i], parityBuf[i*unit:(i+1)*unit])
	}
	return nil
}

func (c *Code) getScratch() *[]byte {
	if v := c.scratch.Get(); v != nil {
		return v.(*[]byte)
	}
	b := make([]byte, c.DataSize()+c.ParitySize())
	return &b
}

// Reconstruct rebuilds every nil shard in place. shards holds the k data
// units followed by the r parity units; at least k must be non-nil.
func (c *Code) Reconstruct(shards [][]byte) error { return c.eng.Reconstruct(shards) }

// AccumulateParity adds data unit u's contribution to a zeroed parity
// stripe: feed all k units in any order (as they arrive from the network)
// and parity is complete, without ever buffering the full data stripe.
func (c *Code) AccumulateParity(parity []byte, u int, unit []byte) error {
	return c.eng.AccumulateParity(parity, u, unit)
}

// ReconstructData rebuilds only the nil *data* shards, leaving lost parity
// shards nil — cheaper for degraded reads that do not need parity back.
func (c *Code) ReconstructData(shards [][]byte) error { return c.eng.ReconstructData(shards) }

// UpdateParity adjusts parity in place for a small write: data unit u
// changed from oldUnit to newUnit. By linearity this costs one unit-sized
// kernel run instead of a full re-encode — the read-modify-write
// optimization parity-coded storage uses for small writes.
func (c *Code) UpdateParity(parity []byte, u int, oldUnit, newUnit []byte) error {
	return c.eng.UpdateParity(parity, u, oldUnit, newUnit)
}

// StripeBuffer accumulates k chunks into a contiguous data stripe; see
// internal/stripe for the §5 rationale.
type StripeBuffer = stripe.Buffer

// StripePool recycles StripeBuffers.
type StripePool = stripe.Pool

// NewStripeBuffer returns a stripe assembler matching this code's geometry.
func (c *Code) NewStripeBuffer() (*StripeBuffer, error) {
	return stripe.NewBuffer(c.K(), c.UnitSize())
}

// NewStripePool returns a pool of stripe buffers matching this code's
// geometry.
func (c *Code) NewStripePool() (*StripePool, error) {
	return stripe.NewPool(c.K(), c.UnitSize())
}
