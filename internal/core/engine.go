// Package core implements the gemmec engine — this repository's equivalent
// of the paper's TVM-EC prototype. It declares a bitmatrix erasure code as
// a tensor-expression computation (the Go rendering of the paper's
// Listing 3), schedules and compiles it through internal/te, optionally
// autotunes the schedule through internal/autotune, and exposes encode /
// reconstruct over contiguous stripes.
//
// The data layout identity that makes this work without copies: the
// contiguous data stripe of a (k, r, w) code — k units of unitSize bytes,
// each unit split into w packets — read as a (k*w) x (unitSize/w/8)
// row-major word matrix IS the GEMM's B operand, and the parity stripe is
// C. Encoding therefore binds the caller's buffers directly to the kernel.
package core

import (
	"bytes"
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gemmec/internal/autotune"
	"gemmec/internal/bitmatrix"
	"gemmec/internal/gf"
	"gemmec/internal/matrix"
	"gemmec/internal/te"
)

// Construction selects the generator family.
type Construction int

const (
	// ConstructionCauchyGood is the default: Jerasure's normalized Cauchy
	// matrix, minimizing bitmatrix ones.
	ConstructionCauchyGood Construction = iota
	// ConstructionCauchy is the unnormalized Cauchy matrix.
	ConstructionCauchy
	// ConstructionVandermonde uses the systematic Vandermonde generator
	// (w = 8 only).
	ConstructionVandermonde
	// ConstructionCauchyBest searches for a ones-minimized Cauchy matrix
	// (§2.1's generator-search optimization), reducing XOR work by roughly
	// 15-20% over ConstructionCauchyGood at construction-time search cost.
	ConstructionCauchyBest
)

// Options configures an Engine. The zero value of each field means "use
// the default".
type Options struct {
	// W is the field word size (default 8; 4 and 16 supported for E-W).
	W int
	// Construction selects the generator matrix family.
	Construction Construction
	// Params pins an explicit schedule, skipping tuning and cache.
	Params *autotune.Params
	// TuneTrials > 0 runs the autotuner at construction, nearest-first from
	// DefaultParams, when neither Params nor a cache hit provides a
	// schedule.
	TuneTrials int
	// Cache, when set, is consulted before tuning and updated after.
	Cache *autotune.Cache
	// Workers overrides goroutine count for parallel schedules.
	Workers int
}

// Engine encodes and reconstructs one (k, r, w, unitSize) configuration.
// Like a TVM kernel, an engine is specialized to static shapes; build one
// engine per stripe geometry. Engines are safe for concurrent use by
// multiple goroutines once constructed (Encode/Reconstruct do not mutate
// shared state except the internal decoder cache, which is locked).
type Engine struct {
	k, r, w  int
	unitSize int
	layout   bitmatrix.Layout
	coding   *matrix.Matrix
	gen      *matrix.Matrix
	bm       *bitmatrix.BitMatrix
	tuneRes  *autotune.Result // non-nil when construction tuned
	enc      *encoder         // the compiled encode executor, fixed at New

	// recScratch pools the contiguous kernel operands of reconstruct and
	// Verify: one (k+r)*unitSize []byte per in-flight call.
	recScratch sync.Pool

	mu         sync.Mutex
	decoders   map[string]*list.Element // pattern key -> LRU element (*decoderEntry)
	decoderLRU *list.List               // front = most recently used
	updaters   map[int]*updater
}

// encoder bundles one compiled encode executor with the operands that only
// make sense together: the kernel, the packed bitmatrix it was prebound to,
// and the schedule it realizes.
type encoder struct {
	comp   *autotune.Compiled
	aBuf   te.Buffer
	params autotune.Params
}

// DefaultMaxCachedDecoders bounds the per-engine decoder cache. Each entry
// pins a compiled kernel plus a packed bitmatrix operand, and the number of
// distinct erasure patterns is combinatorial in k and r, so an unbounded
// map is a memory leak on long-lived engines that see churning failure
// sets. 16 covers every single- and double-erasure pattern of common
// geometries; colder patterns recompile on re-entry (LRU eviction).
const DefaultMaxCachedDecoders = 16

type decoder struct {
	comp *autotune.Compiled
	aBuf te.Buffer
	lost []int
	surv []int
}

// decoderEntry is what decoderLRU elements hold: the decoder plus its key,
// so eviction can delete the map entry.
type decoderEntry struct {
	key string
	d   *decoder
}

// New builds an engine for k data units and r parity units of unitSize
// bytes each. unitSize must be a positive multiple of 8*w.
func New(k, r, unitSize int, opts Options) (*Engine, error) {
	w := opts.W
	if w == 0 {
		w = 8
	}
	l, err := bitmatrix.NewLayout(k, r, w, unitSize)
	if err != nil {
		return nil, err
	}
	f, err := gf.NewField(uint(w))
	if err != nil {
		return nil, err
	}
	var coding *matrix.Matrix
	switch opts.Construction {
	case ConstructionCauchyGood:
		coding, err = matrix.CauchyGood(f, r, k)
	case ConstructionCauchy:
		coding, err = matrix.Cauchy(f, r, k)
	case ConstructionCauchyBest:
		coding, err = bitmatrix.CauchyBest(f, r, k, 64)
	case ConstructionVandermonde:
		if w != 8 {
			return nil, fmt.Errorf("core: Vandermonde construction requires w=8, have w=%d", w)
		}
		var gen *matrix.Matrix
		gen, err = matrix.VandermondeRS(f, k, r)
		if err == nil {
			coding, err = matrix.CodingRows(gen, k)
		}
	default:
		return nil, fmt.Errorf("core: unknown construction %d", opts.Construction)
	}
	if err != nil {
		return nil, err
	}
	gen, err := matrix.SystematicGenerator(coding)
	if err != nil {
		return nil, err
	}

	e := &Engine{
		k: k, r: r, w: w,
		unitSize: unitSize,
		layout:   l,
		coding:   coding,
		gen:      gen,
		bm:       bitmatrix.FromGF(coding),
		decoders: map[string]*list.Element{},
	}
	e.decoderLRU = list.New()
	e.recScratch.New = func() any {
		b := make([]byte, (k+r)*unitSize)
		return &b
	}

	m, kDim, n := l.ParityPlanes(), l.DataPlanes(), l.PlaneSize/8
	params, err := e.resolveParams(m, kDim, n, opts)
	if err != nil {
		return nil, err
	}
	comp, err := autotune.Compile(m, kDim, n, params)
	if err != nil {
		return nil, fmt.Errorf("core: compile encode kernel: %w", err)
	}
	if opts.Workers > 0 {
		comp.Kernel.SetWorkers(opts.Workers)
	}
	aBuf := te.NewBuffer(comp.A)
	if err := te.PackMask(aBuf, m, kDim, e.bm.At); err != nil {
		return nil, err
	}
	if err := comp.Kernel.PrebindMask(aBuf); err != nil {
		return nil, err
	}
	e.enc = &encoder{comp: comp, aBuf: aBuf, params: params}
	return e, nil
}

// Shape returns the encode GEMM dimensions (parity planes x data planes x
// words per plane), for tuning-cache keys and tuner construction outside
// the package.
func (e *Engine) Shape() (m, kDim, n int) {
	return e.layout.ParityPlanes(), e.layout.DataPlanes(), e.layout.PlaneSize / 8
}

// resolveParams picks the schedule: explicit > cache > tuned > default.
func (e *Engine) resolveParams(m, kDim, n int, opts Options) (autotune.Params, error) {
	space, err := autotune.NewSpace(m, kDim, n)
	if err != nil {
		return autotune.Params{}, err
	}
	if opts.Params != nil {
		if !space.Contains(*opts.Params) {
			return autotune.Params{}, fmt.Errorf("core: schedule %v is not legal for shape %dx%dx%d", *opts.Params, m, kDim, n)
		}
		return *opts.Params, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = space.MaxWorkers
	}
	key := autotune.Key(m, kDim, n, workers)
	if opts.Cache != nil {
		if rec, ok := opts.Cache.Get(key); ok && space.Contains(rec.Params) {
			return rec.Params, nil
		}
	}
	if opts.TuneTrials <= 0 && opts.Cache != nil {
		// No budget to tune: transfer the nearest tuned shape if one exists.
		if rec, ok := opts.Cache.NearestShape(m, kDim, n); ok {
			if p := space.Nearest(rec.Params); space.Contains(p) {
				return p, nil
			}
		}
	}
	if opts.TuneTrials > 0 {
		tuner, err := autotune.NewTuner(m, kDim, n, e.bm.At)
		if err != nil {
			return autotune.Params{}, err
		}
		res, err := tuner.Tune(DefaultParams(space), opts.TuneTrials)
		if err != nil {
			return autotune.Params{}, err
		}
		e.tuneRes = res
		if opts.Cache != nil {
			opts.Cache.Put(key, autotune.Record{
				M: m, K: kDim, N: n,
				Params: res.Best, Elapsed: res.BestTime, Trials: len(res.History),
			})
		}
		return res.Best, nil
	}
	return DefaultParams(space), nil
}

// DefaultParams is the pretuned schedule shipped for machines that have not
// run the tuner: cache-tiled column blocks around 4 KB, 8-way reduction
// fusion when the geometry allows, tiles-outer traversal so source tiles
// are reused across all parity rows while they are cache-resident. These
// are the optimizations §4.2 predicts an ML compiler discovers; the
// full-grid optimum sits in this neighborhood (see experiment E-TUNE), so
// construction-time tuning starts its nearest-first search here.
func DefaultParams(s autotune.Space) autotune.Params {
	p := s.Default()
	// Largest block <= 512 words (4 KB) dividing N.
	for _, bw := range s.Blocks {
		if bw <= 512 && (bw > p.BlockWords || p.BlockWords == s.N) {
			p.BlockWords = bw
		}
	}
	if p.BlockWords == s.N && len(s.Blocks) > 1 {
		p.BlockWords = s.Blocks[0]
	}
	for _, f := range s.Fanins {
		if f > p.Fanin {
			p.Fanin = f
		}
	}
	p.RowsOuter = false
	return p
}

// K returns the number of data units.
func (e *Engine) K() int { return e.k }

// R returns the number of parity units.
func (e *Engine) R() int { return e.r }

// W returns the field word size.
func (e *Engine) W() int { return e.w }

// UnitSize returns the configured unit size in bytes.
func (e *Engine) UnitSize() int { return e.unitSize }

// Params returns the schedule of the encode executor.
func (e *Engine) Params() autotune.Params { return e.enc.params }

// TuneResult returns the tuning history when construction autotuned, else
// nil.
func (e *Engine) TuneResult() *autotune.Result { return e.tuneRes }

// CodingMatrix returns a copy of the r x k coding matrix.
func (e *Engine) CodingMatrix() *matrix.Matrix { return e.coding.Clone() }

// Layout returns the stripe geometry.
func (e *Engine) Layout() bitmatrix.Layout { return e.layout }

// LoweredIR returns the printed loop IR of the compiled encode schedule,
// the introspection §8 of the paper plans for ("reason about the
// optimizations performed on the generated code").
func (e *Engine) LoweredIR() (string, error) {
	// Re-derive the schedule (Compile does not retain it) and lower it for
	// printing, mirroring how autotune.Compile realizes the parameters.
	params := e.Params()
	_, _, c := te.ECComputeDecl(e.layout.ParityPlanes(), e.layout.DataPlanes(), e.layout.PlaneSize/8)
	s := te.CreateSchedule(c)
	axes := s.Leaf()
	i, j, rk := axes[0], axes[1], axes[2]
	word := j
	var jo *te.IterVar
	if params.BlockWords < e.layout.PlaneSize/8 {
		var ji *te.IterVar
		var err error
		jo, ji, err = s.Split(j, params.BlockWords)
		if err != nil {
			return "", err
		}
		word = ji
	}
	if err := s.Vectorize(word); err != nil {
		return "", err
	}
	if params.Fanin > 1 {
		_, ki, err := s.Split(rk, params.Fanin)
		if err != nil {
			return "", err
		}
		if err := s.Unroll(ki); err != nil {
			return "", err
		}
	}
	if !params.RowsOuter && jo != nil {
		if err := s.Reorder(jo, i); err != nil {
			return "", err
		}
	}
	mod, err := te.Lower(s)
	if err != nil {
		return "", err
	}
	return mod.Print(), nil
}

// Encode computes the parity stripe from the data stripe. data must be
// k*unitSize bytes (unit-major) and parity r*unitSize bytes; both are bound
// to the kernel without copying.
func (e *Engine) Encode(data, parity []byte) error {
	if err := e.layout.CheckData(data); err != nil {
		return err
	}
	if err := e.layout.CheckParity(parity); err != nil {
		return err
	}
	return e.enc.comp.Kernel.ExecBufs(e.enc.aBuf, te.Buffer(data), te.Buffer(parity))
}

// EncodeUnits encodes from k scattered unit buffers by first gathering them
// into an internal contiguous stripe (the integration path §5 of the paper
// describes, whose copy cost experiment E-MEMCPY measures), then encoding.
// The scratch stripe is returned for reuse; pass nil on first call.
func (e *Engine) EncodeUnits(data [][]byte, parity []byte, scratch []byte) ([]byte, error) {
	if len(data) != e.k {
		return scratch, fmt.Errorf("%w: %d data units, want k=%d", ErrShardCount, len(data), e.k)
	}
	need := e.layout.DataLen()
	if cap(scratch) < need {
		scratch = make([]byte, need)
	}
	scratch = scratch[:need]
	for u, d := range data {
		if len(d) != e.unitSize {
			return scratch, fmt.Errorf("%w: data unit %d has %d bytes, want %d", ErrShardSize, u, len(d), e.unitSize)
		}
		gf.CopyRegion(scratch[u*e.unitSize:(u+1)*e.unitSize], d)
	}
	return scratch, e.Encode(scratch, parity)
}

// Verify recomputes parity from data and reports whether it matches. The
// recomputed parity lands in a pooled scratch stripe (recScratch), so a
// stripe-by-stripe verify walk allocates nothing per stripe.
func (e *Engine) Verify(data, parity []byte) (bool, error) {
	if err := e.layout.CheckParity(parity); err != nil {
		return false, err
	}
	sp := e.recScratch.Get().(*[]byte)
	defer e.recScratch.Put(sp)
	fresh := (*sp)[:e.layout.ParityLen()]
	if err := e.Encode(data, fresh); err != nil {
		return false, err
	}
	return bytes.Equal(fresh, parity), nil
}

// Reconstruct rebuilds every lost unit in place. units holds the k data
// units followed by the r parity units; at least k must be present with
// the engine's unit size. A lost unit is any empty entry: nil is rebuilt
// into a fresh allocation, a zero-length slice with unitSize capacity is
// rebuilt into that capacity — how a stripe-by-stripe repair walk keeps
// its memory at one stripe buffer.
//
// Reconstruction runs through the same compiled-GEMM machinery as encoding:
// the decode bitmatrix (inverted survivor generator times the lost rows) is
// compiled once per erasure pattern and cached, so steady-state repair of a
// recurring failure mode costs one kernel execution.
func (e *Engine) Reconstruct(units [][]byte) error {
	return e.reconstruct(units, false)
}

// ReconstructData is Reconstruct restricted to the data units: lost parity
// units are left nil. Degraded reads use it to avoid paying for parity the
// caller does not need.
func (e *Engine) ReconstructData(units [][]byte) error {
	return e.reconstruct(units, true)
}

func (e *Engine) reconstruct(units [][]byte, dataOnly bool) error {
	if len(units) != e.k+e.r {
		return fmt.Errorf("%w: %d units, want k+r=%d", ErrShardCount, len(units), e.k+e.r)
	}
	var survivors, lost []int
	for i, u := range units {
		if len(u) == 0 {
			if !dataOnly || i < e.k {
				lost = append(lost, i)
			}
			continue
		}
		if len(u) != e.unitSize {
			return fmt.Errorf("%w: unit %d has %d bytes, want %d", ErrShardSize, i, len(u), e.unitSize)
		}
		survivors = append(survivors, i)
	}
	if len(lost) == 0 {
		return nil
	}
	if len(survivors) < e.k {
		return fmt.Errorf("%w: %d survivors for k=%d", ErrTooFewShards, len(survivors), e.k)
	}
	survivors = survivors[:e.k]

	dec, err := e.decoderFor(survivors, lost)
	if err != nil {
		return err
	}

	// Gather survivors into a contiguous stripe (B operand); the kernel
	// writes the lost units contiguously after it (len(lost) <= r here).
	sp := e.recScratch.Get().(*[]byte)
	defer e.recScratch.Put(sp)
	in := (*sp)[:e.k*e.unitSize]
	out := (*sp)[len(in) : len(in)+len(lost)*e.unitSize]
	for i, s := range survivors {
		gf.CopyRegion(in[i*e.unitSize:(i+1)*e.unitSize], units[s])
	}
	if err := dec.comp.Kernel.ExecBufs(dec.aBuf, te.Buffer(in), te.Buffer(out)); err != nil {
		return err
	}
	for i, u := range lost {
		units[u] = append(units[u][:0], out[i*e.unitSize:(i+1)*e.unitSize]...)
	}
	return nil
}

// decoderFor returns (building and caching as needed) the compiled decode
// kernel for an erasure pattern. The cache is a bounded LRU of
// DefaultMaxCachedDecoders entries, and matrix inversion + kernel
// compilation run outside the engine lock: a miss never stalls concurrent
// hits on other patterns (a decoding stream must not freeze because a
// second stream just hit a novel failure set). Two goroutines missing on
// the same pattern may both compile; the first to insert wins and the
// loser's compile is discarded — wasted work, but bounded and lock-free.
func (e *Engine) decoderFor(survivors, lost []int) (*decoder, error) {
	key := patternKey(survivors, lost)
	e.mu.Lock()
	if el, ok := e.decoders[key]; ok {
		e.decoderLRU.MoveToFront(el)
		d := el.Value.(*decoderEntry).d
		e.mu.Unlock()
		cacheHits.Add(1)
		return d, nil
	}
	e.mu.Unlock()
	cacheMisses.Add(1)

	dm, err := matrix.DecodeMatrix(e.gen, e.k, survivors)
	if err != nil {
		return nil, err
	}
	lostRows, err := e.gen.SelectRows(lost)
	if err != nil {
		return nil, err
	}
	rec, err := lostRows.Mul(dm)
	if err != nil {
		return nil, err
	}
	rbm := bitmatrix.FromGF(rec)

	m := len(lost) * e.w
	kDim := e.k * e.w
	n := e.layout.PlaneSize / 8
	// The encode schedule's block size always divides N here (same N), but
	// fanin legality depends only on kDim, also unchanged. Parallel axis
	// "rows" may exceed the smaller M; that is fine (ranges clamp).
	comp, err := autotune.Compile(m, kDim, n, e.Params())
	if err != nil {
		return nil, fmt.Errorf("core: compile decode kernel: %w", err)
	}
	aBuf := te.NewBuffer(comp.A)
	if err := te.PackMask(aBuf, m, kDim, rbm.At); err != nil {
		return nil, err
	}
	if err := comp.Kernel.PrebindMask(aBuf); err != nil {
		return nil, err
	}
	d := &decoder{comp: comp, aBuf: aBuf, lost: append([]int(nil), lost...), surv: append([]int(nil), survivors...)}

	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.decoders[key]; ok {
		// Raced with another compile of the same pattern; keep theirs.
		e.decoderLRU.MoveToFront(el)
		return el.Value.(*decoderEntry).d, nil
	}
	e.decoders[key] = e.decoderLRU.PushFront(&decoderEntry{key: key, d: d})
	for e.decoderLRU.Len() > DefaultMaxCachedDecoders {
		old := e.decoderLRU.Back()
		e.decoderLRU.Remove(old)
		delete(e.decoders, old.Value.(*decoderEntry).key)
		cacheEvictions.Add(1)
	}
	return d, nil
}

// Decoder-cache traffic counters. Package-level rather than per-Engine
// because engines can be short-lived (ad-hoc Codes built from a manifest)
// while a metrics scrape wants process-lifetime totals. The decoders
// themselves stay per-engine; only the accounting is global.
var cacheHits, cacheMisses, cacheEvictions atomic.Int64

// DecoderCacheCounters is a snapshot of process-lifetime decoder-cache
// traffic across all engines.
type DecoderCacheCounters struct {
	Hits, Misses, Evictions int64
}

// ReadDecoderCacheCounters returns cumulative decoder-cache hit, miss and
// eviction counts since process start. A hit reuses a compiled
// reconstruction kernel for an erasure pattern; a miss pays matrix
// inversion + kernel compilation; an eviction drops the least recently
// used pattern past the per-engine cache bound.
func ReadDecoderCacheCounters() DecoderCacheCounters {
	return DecoderCacheCounters{
		Hits:      cacheHits.Load(),
		Misses:    cacheMisses.Load(),
		Evictions: cacheEvictions.Load(),
	}
}

// CachedDecoders returns how many erasure patterns currently have compiled
// decoders resident (at most DefaultMaxCachedDecoders; LRU-evicted
// patterns are not counted).
func (e *Engine) CachedDecoders() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.decoders)
}

func patternKey(survivors, lost []int) string {
	s := append([]int(nil), survivors...)
	l := append([]int(nil), lost...)
	sort.Ints(s)
	sort.Ints(l)
	var b strings.Builder
	for _, v := range s {
		fmt.Fprintf(&b, "s%d,", v)
	}
	for _, v := range l {
		fmt.Fprintf(&b, "l%d,", v)
	}
	return b.String()
}
