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
// C. The kernel reads the same matrix from a table of separate units just
// as well (te.Kernel.ExecUnits), so every entry point binds the caller's
// buffers to the kernel where they lie: contiguous stripes, scattered
// shards, the survivors of a reconstruction and the capacity the lost
// units are rebuilt into.
package core

import (
	"bytes"
	"container/list"
	"fmt"
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
	// Params pins an explicit schedule, skipping tuning.
	Params *autotune.Params
	// TuneTrials > 0 runs the autotuner at construction, nearest-first from
	// DefaultParams, when Params does not pin a schedule.
	TuneTrials int
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

	// scratch pools the per-call state of reconstruct, Verify and
	// UpdateParity (*opScratch), so none of them allocates in steady state.
	scratch sync.Pool

	mu         sync.Mutex
	decoders   map[string]*list.Element // patternKey -> LRU element (*decoderEntry)
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
	e.scratch.New = func() any {
		return &opScratch{
			surv: make([]int, 0, k+r),
			lost: make([]int, 0, k+r),
			b:    make([][]byte, 0, k),
			c:    make([][]byte, 0, r),
		}
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
// words per plane), for tuner construction outside the package.
func (e *Engine) Shape() (m, kDim, n int) {
	return e.layout.ParityPlanes(), e.layout.DataPlanes(), e.layout.PlaneSize / 8
}

// resolveParams picks the schedule: explicit > tuned > default.
func (e *Engine) resolveParams(m, kDim, n int, opts Options) (autotune.Params, error) {
	space, err := autotune.NewSpace(m, kDim, n)
	if err != nil {
		return autotune.Params{}, err
	}
	if opts.Params != nil {
		if err := space.Check(*opts.Params); err != nil {
			return autotune.Params{}, fmt.Errorf("core: schedule %v is not legal for shape %dx%dx%d: %w", *opts.Params, m, kDim, n, err)
		}
		return *opts.Params, nil
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

// EncodeShards computes the r parity units from the k data units where
// they lie: shards holds the k data units followed by the r parity units,
// each unitSize bytes and each its own allocation if the caller likes. The
// kernel reads the data units and writes the parity units in place.
func (e *Engine) EncodeShards(shards [][]byte) error {
	if len(shards) != e.k+e.r {
		return fmt.Errorf("%w: %d shards, want k+r=%d", ErrShardCount, len(shards), e.k+e.r)
	}
	for i, s := range shards {
		if len(s) != e.unitSize {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(s), e.unitSize)
		}
	}
	return e.enc.comp.Kernel.ExecUnits(e.enc.aBuf, shards[:e.k], shards[e.k:], false)
}

// opScratch is one in-flight call's working set: reconstruct's survivor
// and lost index lists, the unit tables it hands the kernel and the
// decoder-cache key it builds; Verify's recomputed parity stripe and
// UpdateParity's delta unit, each allocated on its first use.
type opScratch struct {
	surv, lost []int
	b, c       [][]byte
	key        []byte
	parity     []byte
	delta      []byte
}

// Verify recomputes parity from data and reports whether it matches. The
// recomputed parity lands in a pooled r-unit stripe, so a stripe-by-stripe
// verify walk allocates nothing per stripe.
func (e *Engine) Verify(data, parity []byte) (bool, error) {
	if err := e.layout.CheckParity(parity); err != nil {
		return false, err
	}
	sc := e.scratch.Get().(*opScratch)
	defer e.scratch.Put(sc)
	if sc.parity == nil {
		sc.parity = make([]byte, e.layout.ParityLen())
	}
	if err := e.Encode(data, sc.parity); err != nil {
		return false, err
	}
	return bytes.Equal(sc.parity, parity), nil
}

// Reconstruct rebuilds every lost unit in place. units holds the k data
// units followed by the r parity units; at least k must be present with
// the engine's unit size. A lost unit is any empty entry: nil is rebuilt
// into a fresh allocation, a zero-length slice with unitSize capacity is
// rebuilt into that capacity — how a stripe-by-stripe repair walk keeps
// its memory at one stripe buffer. That capacity must not overlap a
// survivor.
//
// Reconstruction runs through the same compiled-GEMM machinery as encoding:
// the decode bitmatrix (inverted survivor generator times the lost rows) is
// compiled once per erasure pattern and cached, and the kernel reads the
// first k survivors and writes the lost units where they lie, so
// steady-state repair of a recurring failure mode costs one kernel
// execution and, when the caller supplies the capacity, no allocation.
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
	sc := e.scratch.Get().(*opScratch)
	defer e.scratch.Put(sc)
	surv, lost := sc.surv[:0], sc.lost[:0]
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
		surv = append(surv, i)
	}
	if len(lost) == 0 {
		return nil
	}
	if len(surv) < e.k {
		return fmt.Errorf("%w: %d survivors for k=%d", ErrTooFewShards, len(surv), e.k)
	}
	surv = surv[:e.k]

	sc.key = patternKey(sc.key, e.k+e.r, surv, lost)
	dec, err := e.decoderFor(sc.key, surv, lost)
	if err != nil {
		return err
	}

	// B is the survivors, C the lost units' own capacity.
	b, c := sc.b[:0], sc.c[:0]
	for _, s := range surv {
		b = append(b, units[s])
	}
	for _, u := range lost {
		if cap(units[u]) < e.unitSize {
			units[u] = make([]byte, e.unitSize)
		}
		units[u] = units[u][:e.unitSize]
		c = append(c, units[u])
	}
	err = dec.comp.Kernel.ExecUnits(dec.aBuf, b, c, false)
	clear(b) // the pooled tables must not pin the caller's units
	clear(c)
	return err
}

// decoderFor returns (building and caching as needed) the compiled decode
// kernel for an erasure pattern. The cache is a bounded LRU of
// DefaultMaxCachedDecoders entries, and matrix inversion + kernel
// compilation run outside the engine lock: a miss never stalls concurrent
// hits on other patterns (a decoding stream must not freeze because a
// second stream just hit a novel failure set). Two goroutines missing on
// the same pattern may both compile; the first to insert wins and the
// loser's compile is discarded — wasted work, but bounded and lock-free.
func (e *Engine) decoderFor(key []byte, survivors, lost []int) (*decoder, error) {
	e.mu.Lock()
	if el, ok := e.decoders[string(key)]; ok {
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
	d := &decoder{comp: comp, aBuf: aBuf}

	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.decoders[string(key)]; ok {
		// Raced with another compile of the same pattern; keep theirs.
		e.decoderLRU.MoveToFront(el)
		return el.Value.(*decoderEntry).d, nil
	}
	ks := string(key)
	e.decoders[ks] = e.decoderLRU.PushFront(&decoderEntry{key: ks, d: d})
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

// patternKey writes an erasure pattern's decoder-cache key into buf: the
// survivor bitmask over the n units, then the lost bitmask. Looking it up
// as string(key) allocates nothing, so a cache hit costs no garbage.
func patternKey(buf []byte, n int, survivors, lost []int) []byte {
	nb := (n + 7) / 8
	buf = append(buf[:0], make([]byte, 2*nb)...)
	for _, s := range survivors {
		buf[s/8] |= 1 << (s % 8)
	}
	for _, l := range lost {
		buf[nb+l/8] |= 1 << (l % 8)
	}
	return buf
}
