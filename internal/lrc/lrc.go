// Package lrc implements Local Reconstruction Codes in the style of Azure
// storage (Huang et al., ATC '12) — the code family §8 of the paper names
// as future work for the GEMM approach, on the observation that every
// linear code is expressible through the same optimized GEMM routine.
//
// An LRC(k, l, g) splits k data units into l equal local groups. Each group
// gets one local parity (the XOR of its members) and the whole stripe gets
// g global parities (Reed-Solomon combinations of all k units). A single
// failed data unit is repaired from its group — k/l reads instead of the k
// reads Reed-Solomon needs — while up to g+1 arbitrary failures (and many
// larger patterns) remain decodable through the global parities.
//
// Encoding runs through the repository's compiled-GEMM machinery: the
// (l+g) x k coding matrix is converted to a bitmatrix and executed by the
// same te kernel as the core engine, demonstrating the §8 claim.
package lrc

import (
	"errors"
	"fmt"

	"gemmec/internal/autotune"
	"gemmec/internal/bitmatrix"
	"gemmec/internal/core"
	"gemmec/internal/gf"
	"gemmec/internal/matrix"
	"gemmec/internal/te"
)

// ErrUndecodable is returned when an erasure pattern exceeds the code's
// correction capability (the survivor rows do not span the data space).
var ErrUndecodable = errors.New("lrc: erasure pattern not decodable")

// Coder is an LRC(k, l, g) over GF(2^8).
type Coder struct {
	k, l, g  int
	groupSz  int
	unitSize int
	layout   bitmatrix.Layout
	f        *gf.Field
	coding   *matrix.Matrix // (l+g) x k: local rows then global rows
	gen      *matrix.Matrix // (k+l+g) x k

	comp *autotune.Compiled
	aBuf te.Buffer
}

// New builds an LRC with k data units in l local groups plus g global
// parities, for units of unitSize bytes. k must be divisible by l.
func New(k, l, g, unitSize int) (*Coder, error) {
	if k <= 0 || l <= 0 || g <= 0 {
		return nil, fmt.Errorf("lrc: invalid parameters k=%d l=%d g=%d", k, l, g)
	}
	if k%l != 0 {
		return nil, fmt.Errorf("lrc: k=%d not divisible into l=%d groups", k, l)
	}
	f := gf.MustField(8)
	if uint32(k+l+g) > f.Size() {
		return nil, fmt.Errorf("lrc: k+l+g=%d exceeds field size", k+l+g)
	}
	layout, err := bitmatrix.NewLayout(k, l+g, 8, unitSize)
	if err != nil {
		return nil, err
	}

	coding := matrix.New(f, l+g, k)
	groupSz := k / l
	// Local rows: XOR of each group.
	for gi := 0; gi < l; gi++ {
		for m := 0; m < groupSz; m++ {
			coding.Set(gi, gi*groupSz+m, 1)
		}
	}
	// Global rows: Cauchy combinations of all k units, using x-coordinates
	// disjoint from the y-coordinates 0..k-1.
	cau, err := matrix.Cauchy(f, g, k)
	if err != nil {
		return nil, err
	}
	for ri := 0; ri < g; ri++ {
		for ci := 0; ci < k; ci++ {
			coding.Set(l+ri, ci, cau.At(ri, ci))
		}
	}
	gen, err := matrix.SystematicGenerator(coding)
	if err != nil {
		return nil, err
	}

	c := &Coder{
		k: k, l: l, g: g,
		groupSz:  groupSz,
		unitSize: unitSize,
		layout:   layout,
		f:        f,
		coding:   coding,
		gen:      gen,
	}
	m, kDim, n := layout.ParityPlanes(), layout.DataPlanes(), layout.PlaneSize/8
	space, err := autotune.NewSpace(m, kDim, n)
	if err != nil {
		return nil, err
	}
	comp, err := autotune.Compile(m, kDim, n, core.DefaultParams(space))
	if err != nil {
		return nil, err
	}
	c.comp = comp
	c.aBuf = te.NewBuffer(comp.A)
	bm := bitmatrix.FromGF(coding)
	if err := te.PackMask(c.aBuf, m, kDim, bm.At); err != nil {
		return nil, err
	}
	if err := comp.Kernel.PrebindMask(c.aBuf); err != nil {
		return nil, err
	}
	return c, nil
}

// K returns the number of data units.
func (c *Coder) K() int { return c.k }

// L returns the number of local groups (and local parities).
func (c *Coder) L() int { return c.l }

// G returns the number of global parities.
func (c *Coder) G() int { return c.g }

// N returns the total unit count k+l+g.
func (c *Coder) N() int { return c.k + c.l + c.g }

// UnitSize returns the unit size in bytes.
func (c *Coder) UnitSize() int { return c.unitSize }

// Group returns the local group index of data unit i.
func (c *Coder) Group(i int) (int, error) {
	if i < 0 || i >= c.k {
		return 0, fmt.Errorf("lrc: data unit %d out of range", i)
	}
	return i / c.groupSz, nil
}

// GroupMembers returns the data unit indices of local group gi.
func (c *Coder) GroupMembers(gi int) ([]int, error) {
	if gi < 0 || gi >= c.l {
		return nil, fmt.Errorf("lrc: group %d out of range", gi)
	}
	out := make([]int, c.groupSz)
	for m := range out {
		out[m] = gi*c.groupSz + m
	}
	return out, nil
}

// Encode computes the l local and g global parities from a contiguous data
// stripe into a contiguous parity stripe (locals first).
func (c *Coder) Encode(data, parity []byte) error {
	if err := c.layout.CheckData(data); err != nil {
		return err
	}
	if err := c.layout.CheckParity(parity); err != nil {
		return err
	}
	return c.comp.Kernel.ExecBufs(c.aBuf, te.Buffer(data), te.Buffer(parity))
}

// EncodeShards encodes k+l+g equal-size shards in place: data in
// shards[:k], locals written to shards[k:k+l], globals to shards[k+l:].
// The kernel reads and writes the shards where they lie.
func (c *Coder) EncodeShards(shards [][]byte) error {
	if len(shards) != c.N() {
		return fmt.Errorf("lrc: %d shards, want %d", len(shards), c.N())
	}
	for i, s := range shards {
		if len(s) != c.unitSize {
			return fmt.Errorf("lrc: shard %d has %d bytes, want %d", i, len(s), c.unitSize)
		}
	}
	return c.comp.Kernel.ExecUnits(c.aBuf, shards[:c.k], shards[c.k:], false)
}

// RepairPlan describes how a single lost unit will be repaired.
type RepairPlan struct {
	// Local reports whether group-local repair applies.
	Local bool
	// Reads lists the unit indices read to repair.
	Reads []int
}

// PlanRepair returns the repair plan for unit idx assuming only idx is
// lost: local XOR repair for data units and local parities (k/l reads),
// global decode for global parities (k reads).
func (c *Coder) PlanRepair(idx int) (RepairPlan, error) {
	switch {
	case idx < 0 || idx >= c.N():
		return RepairPlan{}, fmt.Errorf("lrc: unit %d out of range", idx)
	case idx < c.k: // data unit: read its group's other members + local parity
		gi := idx / c.groupSz
		var reads []int
		for m := 0; m < c.groupSz; m++ {
			if u := gi*c.groupSz + m; u != idx {
				reads = append(reads, u)
			}
		}
		reads = append(reads, c.k+gi)
		return RepairPlan{Local: true, Reads: reads}, nil
	case idx < c.k+c.l: // local parity: read its group
		gi := idx - c.k
		members, _ := c.GroupMembers(gi)
		return RepairPlan{Local: true, Reads: members}, nil
	default: // global parity: needs all data
		reads := make([]int, c.k)
		for i := range reads {
			reads[i] = i
		}
		return RepairPlan{Local: false, Reads: reads}, nil
	}
}

// RepairSingle rebuilds exactly one lost unit using its repair plan,
// reading only the plan's units from shards. The rebuilt shard is stored
// into shards[idx] (freshly allocated).
func (c *Coder) RepairSingle(shards [][]byte, idx int) error {
	plan, err := c.PlanRepair(idx)
	if err != nil {
		return err
	}
	if len(shards) != c.N() {
		return fmt.Errorf("lrc: %d shards, want %d", len(shards), c.N())
	}
	for _, rd := range plan.Reads {
		if shards[rd] == nil {
			return fmt.Errorf("lrc: repair of %d needs unit %d, which is missing: %w", idx, rd, ErrUndecodable)
		}
		if len(shards[rd]) != c.unitSize {
			return fmt.Errorf("lrc: unit %d has wrong size", rd)
		}
	}
	out := make([]byte, c.unitSize)
	if plan.Local {
		// XOR of the plan's units (group members and/or local parity).
		srcs := make([][]byte, len(plan.Reads))
		for i, rd := range plan.Reads {
			srcs[i] = shards[rd]
		}
		gf.XorRegions(out, srcs, 4)
	} else {
		// Global parity: recompute its coding row from the data units. The
		// combination happens in the bitmatrix plane domain, matching how
		// Encode interprets the buffers.
		row, err := c.coding.SelectRows([]int{idx - c.k})
		if err != nil {
			return err
		}
		srcs := make([][]byte, c.k)
		copy(srcs, shards[:c.k])
		if err := c.applyGF(row, srcs, [][]byte{out}); err != nil {
			return err
		}
	}
	shards[idx] = out
	return nil
}

// applyGF computes outs = rows * srcs in the bitmatrix plane domain, where
// rows is a GF(2^8) matrix of shape len(outs) x len(srcs) and every buffer
// is one unit.
func (c *Coder) applyGF(rows *matrix.Matrix, srcs, outs [][]byte) error {
	w := 8
	bm := bitmatrix.FromGF(rows)
	srcPlanes := make([][]byte, len(srcs)*w)
	for u, s := range srcs {
		if len(s) != c.unitSize {
			return fmt.Errorf("lrc: source unit has %d bytes, want %d", len(s), c.unitSize)
		}
		copy(srcPlanes[u*w:], c.layout.UnitPlanes(s))
	}
	for oi, out := range outs {
		outPlanes := c.layout.UnitPlanes(out)
		for p := 0; p < w; p++ {
			dst := outPlanes[p]
			clear(dst)
			for _, j := range bm.RowOnes(oi*w + p) {
				gf.XorRegion(dst, srcPlanes[j])
			}
		}
	}
	return nil
}

// Verify recomputes all parities from the data shards and reports whether
// every local and global parity matches.
func (c *Coder) Verify(shards [][]byte) (bool, error) {
	if len(shards) != c.N() {
		return false, fmt.Errorf("lrc: %d shards, want %d", len(shards), c.N())
	}
	for i, s := range shards {
		if len(s) != c.unitSize {
			return false, fmt.Errorf("lrc: shard %d has %d bytes, want %d", i, len(s), c.unitSize)
		}
	}
	data := make([]byte, c.k*c.unitSize)
	for i := 0; i < c.k; i++ {
		copy(data[i*c.unitSize:], shards[i])
	}
	parity := make([]byte, (c.l+c.g)*c.unitSize)
	if err := c.Encode(data, parity); err != nil {
		return false, err
	}
	for i := 0; i < c.l+c.g; i++ {
		want := parity[i*c.unitSize : (i+1)*c.unitSize]
		got := shards[c.k+i]
		for b := range want {
			if want[b] != got[b] {
				return false, nil
			}
		}
	}
	return true, nil
}

// Reconstruct rebuilds every nil shard in place, choosing local repair when
// a single group covers each loss and falling back to solving the full
// linear system over all survivors otherwise. It returns ErrUndecodable for
// patterns beyond the code's capability.
func (c *Coder) Reconstruct(shards [][]byte) error {
	if len(shards) != c.N() {
		return fmt.Errorf("lrc: %d shards, want %d", len(shards), c.N())
	}
	var lost []int
	size := -1
	for i, s := range shards {
		if s == nil {
			lost = append(lost, i)
			continue
		}
		if size == -1 {
			size = len(s)
		}
		if len(s) != c.unitSize {
			return fmt.Errorf("lrc: shard %d has %d bytes, want %d", i, len(s), c.unitSize)
		}
	}
	if len(lost) == 0 {
		return nil
	}

	// Pass 1: local repairs for units whose plan is satisfied.
	progress := true
	for progress {
		progress = false
		var remaining []int
		for _, idx := range lost {
			if err := c.RepairSingle(shards, idx); err == nil {
				progress = true
			} else {
				remaining = append(remaining, idx)
			}
		}
		lost = remaining
	}
	if len(lost) == 0 {
		return nil
	}

	// Pass 2: global solve. Select k survivor rows with full rank.
	var survivors []int
	for i, s := range shards {
		if s != nil {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) < c.k {
		return ErrUndecodable
	}
	rows, err := c.gen.SelectRows(survivors)
	if err != nil {
		return err
	}
	// Greedy independent row selection via rank growth.
	var chosen []int
	var sel []int
	for i := range survivors {
		trial := append(sel, i)
		sub, err := rows.SelectRows(trial)
		if err != nil {
			return err
		}
		if sub.Rank() == len(trial) {
			sel = trial
			chosen = append(chosen, survivors[i])
			if len(sel) == c.k {
				break
			}
		}
	}
	if len(sel) != c.k {
		return ErrUndecodable
	}
	dm, err := matrix.DecodeMatrix(c.gen, c.k, chosen)
	if err != nil {
		return err
	}
	lostRows, err := c.gen.SelectRows(lost)
	if err != nil {
		return err
	}
	rec, err := lostRows.Mul(dm)
	if err != nil {
		return err
	}
	srcs := make([][]byte, c.k)
	for si, s := range chosen {
		srcs[si] = shards[s]
	}
	outs := make([][]byte, len(lost))
	for i := range outs {
		outs[i] = make([]byte, c.unitSize)
	}
	if err := c.applyGF(rec, srcs, outs); err != nil {
		return err
	}
	for li, idx := range lost {
		shards[idx] = outs[li]
	}
	return nil
}
