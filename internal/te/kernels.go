package te

import (
	"fmt"
	"slices"
	"sync"

	"gemmec/internal/gf"
)

// This file is the execution engine behind Build: word-parallel, cache
// tiled, reduction-grouped GF(2) GEMM. It is what TVM's generated LLVM
// would be on a real platform; the specialization parameters all come from
// the schedule via KernelConfig.

// PrebindMask precomputes the generator selection lists for a mask buffer
// that will be passed unchanged on every Exec (the common case: a coder's
// generator is fixed at construction). Exec recognizes the prebound buffer
// by identity and skips re-deriving the lists, making steady-state encoding
// allocation-free. Call before sharing the kernel across goroutines.
func (k *Kernel) PrebindMask(a Buffer) error {
	if len(a) != k.a.Bytes() {
		return fmt.Errorf("te: mask buffer %d bytes, want %d", len(a), k.a.Bytes())
	}
	rows, err := maskRows(a, k.cfg.M, k.cfg.K)
	if err != nil {
		return err
	}
	k.preMask = &a[0]
	k.preLen = len(a)
	k.preRows = rows
	return nil
}

// Exec runs the kernel over the bound buffers. A (M x K bitmask words) is
// read to a selection list per row; B (K x N words) and C (M x N words) are
// processed as byte regions through the fused XOR kernels. BitMask words
// must be 0 or ^0; anything else is rejected.
func (k *Kernel) Exec(bind Bindings) error {
	if err := bind.check(k.a, k.b, k.c); err != nil {
		return err
	}
	return k.ExecBufs(bind[k.a], bind[k.b], bind[k.c])
}

// ExecBufs is Exec without the Bindings map: the operand buffers are passed
// positionally (generator mask, data, output). It is ExecUnits with B and
// C each one unit that holds all of its rows.
func (k *Kernel) ExecBufs(aBuf, bBuf, cBuf Buffer) error {
	b, c := [1][]byte{bBuf}, [1][]byte{cBuf}
	return k.ExecUnits(aBuf, b[:], c[:], false)
}

// ExecUnits runs the kernel on B and C given as tables of equal-sized
// units rather than one buffer each. B's K rows are split evenly over
// len(b) units: with w = K/len(b), row kk of B is plane kk%w of unit kk/w,
// and C's M rows are split over len(c) units the same way. The units are
// read and written where they lie, so a coder hands the caller's shards
// straight in: no gather into a contiguous stripe, no copy out of one.
//
// With accumulate set the product is added into C (C ^= A·B, BLAS's
// beta = 1) instead of overwriting it. C must not overlap B.
func (k *Kernel) ExecUnits(aBuf Buffer, b, c [][]byte, accumulate bool) error {
	cfg := k.cfg
	if len(aBuf) != k.a.Bytes() {
		return fmt.Errorf("te: mask buffer %d bytes, want %d", len(aBuf), k.a.Bytes())
	}
	if err := checkUnits("B", b, cfg.K, cfg.N*8); err != nil {
		return err
	}
	if err := checkUnits("C", c, cfg.M, cfg.N*8); err != nil {
		return err
	}

	var rowOnes [][]int
	if k.preRows != nil && len(aBuf) == k.preLen && &aBuf[0] == k.preMask {
		rowOnes = k.preRows
	} else {
		var err error
		rowOnes, err = maskRows(aBuf, cfg.M, cfg.K)
		if err != nil {
			return err
		}
	}

	switch cfg.Parallel {
	case ParallelRows, ParallelBlocks:
		// The range goroutines get copies of the tables: handing them the
		// caller's would move those to the heap on the serial path too.
		ar := k.args(rowOnes, slices.Clone(b), slices.Clone(c), accumulate)
		if cfg.Parallel == ParallelRows {
			parallelRanges(cfg.M, cfg.Workers, func(lo, hi int) { k.runRange(&ar, lo, hi, true) })
		} else {
			parallelRanges(ar.nBlocks, cfg.Workers, func(lo, hi int) { k.runRange(&ar, lo, hi, false) })
		}
	default:
		ar := k.args(rowOnes, b, c, accumulate)
		if cfg.RowsOuter {
			k.runRange(&ar, 0, cfg.M, true)
		} else {
			k.runRange(&ar, 0, ar.nBlocks, false)
		}
	}
	return nil
}

// checkUnits validates an operand table: a nonzero number of units that
// divides the operand's rows, each exactly its share of rows long.
func checkUnits(name string, t [][]byte, rows, rowBytes int) error {
	if len(t) == 0 || rows%len(t) != 0 {
		return fmt.Errorf("te: %s split over %d units, want a divisor of its %d rows", name, len(t), rows)
	}
	want := rows / len(t) * rowBytes
	for i, u := range t {
		if len(u) != want {
			return fmt.Errorf("te: %s unit %d is %d bytes, want %d", name, i, len(u), want)
		}
	}
	return nil
}

// execArgs carries one call's resolved operands into the tile loops. Only
// the parallel path takes its address in a closure, so a serial call
// keeps it on the stack.
type execArgs struct {
	rowOnes    [][]int
	b, c       [][]byte
	nBlocks    int
	accumulate bool
}

func (k *Kernel) args(rowOnes [][]int, b, c [][]byte, accumulate bool) execArgs {
	return execArgs{
		rowOnes:    rowOnes,
		b:          b,
		c:          c,
		nBlocks:    (k.cfg.N + k.cfg.BlockWords - 1) / k.cfg.BlockWords,
		accumulate: accumulate,
	}
}

// execState is the mutable per-range scratch: every row of B and of C
// resolved to its slice of a unit, the source-slice table and, under
// Staged (cache_write), the tile accumulator. States are pooled on the
// kernel so steady-state execution is allocation-free; each concurrent
// range borrows its own, keeping the kernel goroutine-safe.
type execState struct {
	bRows, cRows [][]byte
	srcs         [][]byte
	scratch      []byte
}

func (k *Kernel) getState() *execState {
	if v := k.statePool.Get(); v != nil {
		return v.(*execState)
	}
	st := &execState{
		bRows: make([][]byte, k.cfg.K),
		cRows: make([][]byte, k.cfg.M),
		srcs:  make([][]byte, 0, k.cfg.K),
	}
	if k.cfg.Staged {
		st.scratch = make([]byte, k.cfg.BlockWords*8)
	}
	return st
}

// splitRows points rows[i] at row i of a table whose units each hold
// len(rows)/len(t) rows: row i is plane i%per of unit i/per.
func splitRows(rows, t [][]byte, rowBytes int) {
	per := len(rows) / len(t)
	for i := range rows {
		p := i % per * rowBytes
		rows[i] = t[i/per][p : p+rowBytes]
	}
}

// runRange executes one contiguous slice of the outer loop axis (rows when
// overRows, word-axis blocks otherwise) with pooled scratch.
func (k *Kernel) runRange(ar *execArgs, lo, hi int, overRows bool) {
	st := k.getState()
	splitRows(st.bRows, ar.b, k.cfg.N*8)
	splitRows(st.cRows, ar.c, k.cfg.N*8)
	if overRows {
		for row := lo; row < hi; row++ {
			for blk := 0; blk < ar.nBlocks; blk++ {
				k.tile(ar, st, row, blk)
			}
		}
	} else {
		for blk := lo; blk < hi; blk++ {
			for row := 0; row < k.cfg.M; row++ {
				k.tile(ar, st, row, blk)
			}
		}
	}
	k.statePool.Put(st)
}

// tile computes C[row, blk*BlockWords : ...] from its sources, adding to
// what C holds under accumulate. With Staged (cache_write), the tile
// accumulates in st.scratch and is written back once.
func (k *Kernel) tile(ar *execArgs, st *execState, row, blk int) {
	cfg := &k.cfg
	off := blk * cfg.BlockWords * 8
	end := min(off+cfg.BlockWords*8, cfg.N*8)
	dst := st.cRows[row][off:end]
	ones := ar.rowOnes[row]
	if len(ones) == 0 {
		if !ar.accumulate {
			clear(dst)
		}
		return
	}
	srcs := st.srcs[:0]
	for _, kk := range ones {
		srcs = append(srcs, st.bRows[kk][off:end])
	}
	st.srcs = srcs // persist any growth beyond the initial K capacity
	acc := dst
	if st.scratch != nil {
		acc = st.scratch[:end-off]
		if ar.accumulate {
			gf.CopyRegion(acc, dst)
		}
	}
	if !ar.accumulate {
		gf.CopyRegion(acc, srcs[0])
		srcs = srcs[1:]
	}
	gf.XorRegions(acc, srcs, cfg.Fanin)
	if st.scratch != nil {
		gf.CopyRegion(dst, acc)
	}
}

// maskRows converts an M x K bitmask buffer into per-row selection lists,
// validating the 0-or-all-ones invariant of BitMask tensors.
func maskRows(a Buffer, m, k int) ([][]int, error) {
	rows := make([][]int, m)
	for i := 0; i < m; i++ {
		var ones []int
		for j := 0; j < k; j++ {
			switch a.Word(i*k + j) {
			case 0:
			case ^uint64(0):
				ones = append(ones, j)
			default:
				return nil, fmt.Errorf("te: bitmask word (%d,%d) is %#x, want 0 or ^0", i, j, a.Word(i*k+j))
			}
		}
		rows[i] = ones
	}
	return rows, nil
}

// parallelRanges splits [0, n) into near-equal contiguous ranges across
// workers goroutines and waits for completion.
func parallelRanges(n, workers int, f func(lo, hi int)) {
	if workers <= 1 || n <= 1 {
		f(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// PackMask writes the M x K bit matrix rows (as boolean set-lists or a
// predicate) into a BitMask buffer: bit set -> ^0, clear -> 0.
func PackMask(buf Buffer, m, k int, bit func(i, j int) bool) error {
	if len(buf) != m*k*8 {
		return fmt.Errorf("te: mask buffer %d bytes, want %d", len(buf), m*k*8)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			v := uint64(0)
			if bit(i, j) {
				v = ^uint64(0)
			}
			buf.SetWord(i*k+j, v)
		}
	}
	return nil
}
