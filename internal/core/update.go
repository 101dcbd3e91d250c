package core

import (
	"fmt"

	"gemmec/internal/autotune"
	"gemmec/internal/gf"
	"gemmec/internal/te"
)

// Incremental parity update: when a single data unit changes, linearity
// gives parity' = parity XOR G_u * (old XOR new), where G_u is the
// generator's column block for unit u. Updating costs one unit-sized GEMM
// on one unit of input instead of re-encoding all k units — the standard
// small-write optimization of parity-coded storage (RAID-5's read-modify-
// write), expressed here through the same compiled-kernel machinery, in
// the kernel's accumulate mode: the product is added into the parity
// stripe where it lies, with no product buffer.

// updater is the compiled column-block kernel for one data unit.
type updater struct {
	comp *autotune.Compiled
	aBuf te.Buffer
}

// updaterFor returns (building and caching) the update kernel for unit u.
func (e *Engine) updaterFor(u int) (*updater, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.updaters == nil {
		e.updaters = map[int]*updater{}
	}
	if up, ok := e.updaters[u]; ok {
		return up, nil
	}
	m := e.r * e.w // all parity planes
	kDim := e.w    // just unit u's planes
	n := e.layout.PlaneSize / 8
	// The unit-update GEMM has a tiny reduction axis (w), so reuse the
	// engine's schedule with the fanin clamped to a legal divisor of w.
	p := e.Params()
	for p.Fanin > 1 && kDim%p.Fanin != 0 {
		p.Fanin /= 2
	}
	if p.Fanin < 1 {
		p.Fanin = 1
	}
	comp, err := autotune.Compile(m, kDim, n, p)
	if err != nil {
		return nil, fmt.Errorf("core: compile update kernel: %w", err)
	}
	aBuf := te.NewBuffer(comp.A)
	// Column block u of the encode bitmatrix: rows all, cols [u*w, (u+1)*w).
	if err := te.PackMask(aBuf, m, kDim, func(i, j int) bool {
		return e.bm.At(i, u*e.w+j)
	}); err != nil {
		return nil, err
	}
	if err := comp.Kernel.PrebindMask(aBuf); err != nil {
		return nil, err
	}
	up := &updater{comp: comp, aBuf: aBuf}
	e.updaters[u] = up
	return up, nil
}

// addTo computes parity ^= G_u * unit: one accumulating kernel pass over
// the caller's buffers.
func (up *updater) addTo(parity, unit []byte) error {
	b, c := [1][]byte{unit}, [1][]byte{parity}
	return up.comp.Kernel.ExecUnits(up.aBuf, b[:], c[:], true)
}

// UpdateParity adjusts the parity stripe in place for a change of data unit
// u from oldUnit to newUnit, without touching the other k-1 units. oldUnit
// and newUnit must each be unitSize bytes; parity must be the full parity
// stripe previously computed over the old data.
func (e *Engine) UpdateParity(parity []byte, u int, oldUnit, newUnit []byte) error {
	if err := e.layout.CheckParity(parity); err != nil {
		return err
	}
	if u < 0 || u >= e.k {
		return fmt.Errorf("core: unit %d out of range [0,%d)", u, e.k)
	}
	if len(oldUnit) != e.unitSize || len(newUnit) != e.unitSize {
		return fmt.Errorf("%w: update units must be %d bytes (old=%d new=%d)", ErrShardSize, e.unitSize, len(oldUnit), len(newUnit))
	}
	up, err := e.updaterFor(u)
	if err != nil {
		return err
	}
	// delta = old ^ new in a pooled unit, then parity ^= G_u * delta.
	sc := e.scratch.Get().(*opScratch)
	defer e.scratch.Put(sc)
	if sc.delta == nil {
		sc.delta = make([]byte, e.unitSize)
	}
	gf.CopyRegion(sc.delta, oldUnit)
	gf.XorRegion(sc.delta, newUnit)
	return up.addTo(parity, sc.delta)
}

// AccumulateParity adds data unit u's contribution to the parity stripe:
// parity ^= G_u * unit. Zero the parity stripe, accumulate all k units (in
// any order, as they arrive), and the parity is complete — the streaming-
// arrival encode ISA-L calls ec_encode_data_update, built from the same
// per-unit column-block kernels as UpdateParity.
func (e *Engine) AccumulateParity(parity []byte, u int, unit []byte) error {
	if err := e.layout.CheckParity(parity); err != nil {
		return err
	}
	if u < 0 || u >= e.k {
		return fmt.Errorf("core: unit %d out of range [0,%d)", u, e.k)
	}
	if len(unit) != e.unitSize {
		return fmt.Errorf("%w: unit has %d bytes, want %d", ErrShardSize, len(unit), e.unitSize)
	}
	up, err := e.updaterFor(u)
	if err != nil {
		return err
	}
	return up.addTo(parity, unit)
}

// CachedUpdaters returns how many per-unit update kernels are compiled.
func (e *Engine) CachedUpdaters() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.updaters)
}
