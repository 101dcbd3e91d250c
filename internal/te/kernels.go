package te

import (
	"fmt"
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
// positionally (generator mask, data, output). Hot paths that run one
// kernel per stripe use it to keep steady-state encoding allocation-light.
func (k *Kernel) ExecBufs(aBuf, bBuf, cBuf Buffer) error {
	if len(aBuf) != k.a.Bytes() || len(bBuf) != k.b.Bytes() || len(cBuf) != k.c.Bytes() {
		return fmt.Errorf("te: buffer sizes %d/%d/%d, want %d/%d/%d",
			len(aBuf), len(bBuf), len(cBuf), k.a.Bytes(), k.b.Bytes(), k.c.Bytes())
	}
	cfg := k.cfg

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

	ar := execArgs{
		rowOnes:  rowOnes,
		bBuf:     bBuf,
		cBuf:     cBuf,
		nBlocks:  (cfg.N + cfg.BlockWords - 1) / cfg.BlockWords,
		rowBytes: cfg.N * 8,
	}

	workers := cfg.Workers
	switch cfg.Parallel {
	case ParallelRows:
		parallelRanges(cfg.M, workers, func(lo, hi int) { k.runRange(ar, lo, hi, true) })
	case ParallelBlocks:
		parallelRanges(ar.nBlocks, workers, func(lo, hi int) { k.runRange(ar, lo, hi, false) })
	default:
		if cfg.RowsOuter {
			k.runRange(ar, 0, cfg.M, true)
		} else {
			k.runRange(ar, 0, ar.nBlocks, false)
		}
	}
	return nil
}

// execArgs carries one ExecBufs call's resolved operands into the tile
// loops. Passed by value so the serial path stays on the stack.
type execArgs struct {
	rowOnes  [][]int
	bBuf     Buffer
	cBuf     Buffer
	nBlocks  int
	rowBytes int
}

// execState is the mutable per-range scratch: the source-slice table and,
// under Staged (cache_write), the tile accumulator. States are pooled on
// the kernel so steady-state execution is allocation-free; each concurrent
// range borrows its own, keeping the kernel goroutine-safe.
type execState struct {
	srcs    [][]byte
	scratch []byte
}

func (k *Kernel) getState() *execState {
	if v := k.statePool.Get(); v != nil {
		return v.(*execState)
	}
	st := &execState{srcs: make([][]byte, 0, k.cfg.K)}
	if k.cfg.Staged {
		st.scratch = make([]byte, k.cfg.BlockWords*8)
	}
	return st
}

// runRange executes one contiguous slice of the outer loop axis (rows when
// overRows, word-axis blocks otherwise) with pooled scratch.
func (k *Kernel) runRange(ar execArgs, lo, hi int, overRows bool) {
	st := k.getState()
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

// tile computes C[row, blk*BlockWords : ...] from its sources. With Staged
// (cache_write), the tile accumulates in st.scratch and is written back
// once.
func (k *Kernel) tile(ar execArgs, st *execState, row, blk int) {
	cfg := k.cfg
	off := blk * cfg.BlockWords * 8
	end := off + cfg.BlockWords*8
	if end > ar.rowBytes {
		end = ar.rowBytes
	}
	dst := ar.cBuf[row*ar.rowBytes+off : row*ar.rowBytes+end]
	ones := ar.rowOnes[row]
	if len(ones) == 0 {
		clear(dst)
		return
	}
	srcs := st.srcs[:0]
	for _, kk := range ones {
		srcs = append(srcs, ar.bBuf[kk*ar.rowBytes+off:kk*ar.rowBytes+end])
	}
	st.srcs = srcs // persist any growth beyond the initial K capacity
	acc := dst
	if st.scratch != nil {
		acc = st.scratch[:end-off]
	}
	gf.CopyRegion(acc, srcs[0])
	gf.XorRegions(acc, srcs[1:], cfg.Fanin)
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
