// Package isal implements a Reed-Solomon coder in the style of Intel's
// Intelligent Storage Acceleration Library (ISA-L): full GF(2^8) arithmetic
// (no bitmatrix conversion), driven by precomputed split-nibble
// multiplication tables and dot-product kernels that carry several parity
// destinations through a single pass over each source.
//
// ISA-L's performance on x86 comes from feeding those nibble tables to
// PSHUFB; pure Go has no byte shuffle, so the kernels here consume the same
// tables one byte at a time. The structure — table pre-expansion at coder
// construction, multi-destination dot products, cache-sized strips — is
// preserved, which is what the paper's comparison shape depends on.
package isal

import (
	"errors"
	"fmt"

	"gemmec/internal/gf"
	"gemmec/internal/matrix"
)

// stripBytes is the strip length processed per kernel invocation, keeping
// the working set (one source strip + up to 4 destination strips) inside
// L1, analogous to ISA-L's internal segmenting.
const stripBytes = 4096

// ErrTooFewShards mirrors rs.ErrTooFewShards for this package.
var ErrTooFewShards = errors.New("isal: fewer than k shards available")

// Coder is an ISA-L-style systematic RS coder over GF(2^8).
type Coder struct {
	k, r   int
	f      *gf.Field
	coding *matrix.Matrix   // r x k
	gen    *matrix.Matrix   // (k+r) x k
	tbls   []gf.NibbleTable // r*k tables, row-major [parity][data]
}

// New builds a coder with ISA-L's Vandermonde-derived systematic generator.
func New(k, r int) (*Coder, error) {
	gen, err := matrix.VandermondeRS(gf.MustField(8), k, r)
	if err != nil {
		return nil, err
	}
	coding, err := matrix.CodingRows(gen, k)
	if err != nil {
		return nil, err
	}
	return fromCoding(coding)
}

// NewWithCoding builds a coder over an explicit r x k coding matrix, so
// cross-library equivalence tests can pin every implementation to one
// generator.
func NewWithCoding(coding *matrix.Matrix) (*Coder, error) {
	if coding.Field().W() != 8 {
		return nil, fmt.Errorf("isal: requires GF(2^8), got w=%d", coding.Field().W())
	}
	return fromCoding(coding.Clone())
}

func fromCoding(coding *matrix.Matrix) (*Coder, error) {
	gen, err := matrix.SystematicGenerator(coding)
	if err != nil {
		return nil, err
	}
	c := &Coder{
		k:      coding.Cols(),
		r:      coding.Rows(),
		f:      coding.Field(),
		coding: coding,
		gen:    gen,
	}
	c.tbls = expandTables(c.f, coding)
	return c, nil
}

// expandTables precomputes the nibble tables for every coefficient,
// ISA-L's ec_init_tables.
func expandTables(f *gf.Field, m *matrix.Matrix) []gf.NibbleTable {
	tbls := make([]gf.NibbleTable, m.Rows()*m.Cols())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			tbls[i*m.Cols()+j] = f.NibbleTable8(uint8(m.At(i, j)))
		}
	}
	return tbls
}

// K returns the number of data shards.
func (c *Coder) K() int { return c.k }

// R returns the number of parity shards.
func (c *Coder) R() int { return c.r }

// CodingMatrix returns a copy of the coding matrix.
func (c *Coder) CodingMatrix() *matrix.Matrix { return c.coding.Clone() }

// dotProd1/2/4 update one, two or four destination strips from a single
// source strip: dst[n][i] ^= tbl[n].Mul(src[i]). Reading the source once
// per group instead of once per parity is ISA-L's gf_Nvect_mad structure.
// Each destination is resliced to len(src) once, so the per-byte stores
// carry no bounds check.

func dotProd1(t0 gf.NibbleTable, d0, src []byte) {
	d0 = d0[:len(src)]
	for i, b := range src {
		d0[i] ^= t0.Lo[b&0xf] ^ t0.Hi[b>>4]
	}
}

func dotProd2(t0, t1 gf.NibbleTable, d0, d1, src []byte) {
	d0, d1 = d0[:len(src)], d1[:len(src)]
	for i, b := range src {
		lo, hi := b&0xf, b>>4
		d0[i] ^= t0.Lo[lo] ^ t0.Hi[hi]
		d1[i] ^= t1.Lo[lo] ^ t1.Hi[hi]
	}
}

func dotProd4(t0, t1, t2, t3 gf.NibbleTable, d0, d1, d2, d3, src []byte) {
	d0, d1, d2, d3 = d0[:len(src)], d1[:len(src)], d2[:len(src)], d3[:len(src)]
	for i, b := range src {
		lo, hi := b&0xf, b>>4
		d0[i] ^= t0.Lo[lo] ^ t0.Hi[hi]
		d1[i] ^= t1.Lo[lo] ^ t1.Hi[hi]
		d2[i] ^= t2.Lo[lo] ^ t2.Hi[hi]
		d3[i] ^= t3.Lo[lo] ^ t3.Hi[hi]
	}
}

// encodeStrips runs the dot-product kernels: outputs[oi] ^= tbls[oi*numIn+ii] * inputs[ii]
// over equal-length buffers, strip by strip. Outputs must be pre-zeroed.
func encodeStrips(tbls []gf.NibbleTable, inputs, outputs [][]byte, size int) {
	numIn, numOut := len(inputs), len(outputs)
	for off := 0; off < size; off += stripBytes {
		end := off + stripBytes
		if end > size {
			end = size
		}
		for ii := 0; ii < numIn; ii++ {
			src := inputs[ii][off:end]
			oi := 0
			for ; oi+4 <= numOut; oi += 4 {
				dotProd4(
					tbls[(oi+0)*numIn+ii], tbls[(oi+1)*numIn+ii],
					tbls[(oi+2)*numIn+ii], tbls[(oi+3)*numIn+ii],
					outputs[oi][off:end], outputs[oi+1][off:end],
					outputs[oi+2][off:end], outputs[oi+3][off:end], src)
			}
			for ; oi+2 <= numOut; oi += 2 {
				dotProd2(tbls[(oi+0)*numIn+ii], tbls[(oi+1)*numIn+ii],
					outputs[oi][off:end], outputs[oi+1][off:end], src)
			}
			for ; oi < numOut; oi++ {
				dotProd1(tbls[oi*numIn+ii], outputs[oi][off:end], src)
			}
		}
	}
}

func checkShards(shards [][]byte, want int, allowNil bool) (int, error) {
	if len(shards) != want {
		return 0, fmt.Errorf("isal: have %d shards, want %d", len(shards), want)
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			if !allowNil {
				return 0, fmt.Errorf("isal: shard %d is nil", i)
			}
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("isal: shard %d has %d bytes, others %d", i, len(s), size)
		}
	}
	if size <= 0 {
		return 0, errors.New("isal: no shard data")
	}
	return size, nil
}

// Encode fills shards[k:] (parity) from shards[:k] (data).
func (c *Coder) Encode(shards [][]byte) error {
	size, err := checkShards(shards, c.k+c.r, false)
	if err != nil {
		return err
	}
	for _, p := range shards[c.k:] {
		clear(p)
	}
	encodeStrips(c.tbls, shards[:c.k], shards[c.k:], size)
	return nil
}

// EncodeStripe encodes from a contiguous data stripe (k units back to back)
// into a contiguous parity stripe (r units), the layout §5 of the paper
// argues storage systems should provide to GEMM-shaped coders.
func (c *Coder) EncodeStripe(data, parity []byte, unitSize int) error {
	if unitSize <= 0 || len(data) != c.k*unitSize || len(parity) != c.r*unitSize {
		return fmt.Errorf("isal: stripe geometry mismatch (unit=%d data=%d parity=%d)", unitSize, len(data), len(parity))
	}
	inputs := make([][]byte, c.k)
	for i := range inputs {
		inputs[i] = data[i*unitSize : (i+1)*unitSize]
	}
	outputs := make([][]byte, c.r)
	for i := range outputs {
		outputs[i] = parity[i*unitSize : (i+1)*unitSize]
		clear(outputs[i])
	}
	encodeStrips(c.tbls, inputs, outputs, unitSize)
	return nil
}

// EncodeUpdate accumulates one data shard's contribution into the parity
// shards, mirroring ISA-L's ec_encode_data_update: callers zero the
// parities, then feed data shards in any order as they arrive, and the
// parities are complete once all k have been applied. This lets encoding
// overlap data arrival instead of buffering the whole stripe.
func (c *Coder) EncodeUpdate(shardIdx int, shard []byte, parity [][]byte) error {
	if shardIdx < 0 || shardIdx >= c.k {
		return fmt.Errorf("isal: shard index %d out of range [0,%d)", shardIdx, c.k)
	}
	if len(parity) != c.r {
		return fmt.Errorf("isal: %d parity shards, want r=%d", len(parity), c.r)
	}
	for i, p := range parity {
		if len(p) != len(shard) {
			return fmt.Errorf("isal: parity %d has %d bytes, shard has %d", i, len(p), len(shard))
		}
	}
	if len(shard) == 0 {
		return errors.New("isal: empty shard")
	}
	tbls := make([]gf.NibbleTable, c.r)
	for p := 0; p < c.r; p++ {
		tbls[p] = c.tbls[p*c.k+shardIdx]
	}
	for off := 0; off < len(shard); off += stripBytes {
		end := off + stripBytes
		if end > len(shard) {
			end = len(shard)
		}
		src := shard[off:end]
		pi := 0
		for ; pi+4 <= c.r; pi += 4 {
			dotProd4(tbls[pi], tbls[pi+1], tbls[pi+2], tbls[pi+3],
				parity[pi][off:end], parity[pi+1][off:end], parity[pi+2][off:end], parity[pi+3][off:end], src)
		}
		for ; pi+2 <= c.r; pi += 2 {
			dotProd2(tbls[pi], tbls[pi+1], parity[pi][off:end], parity[pi+1][off:end], src)
		}
		for ; pi < c.r; pi++ {
			dotProd1(tbls[pi], parity[pi][off:end], src)
		}
	}
	return nil
}

// Reconstruct rebuilds every nil shard in place, allocating fresh buffers,
// exactly as rs.Coder.Reconstruct does but through the optimized kernels.
func (c *Coder) Reconstruct(shards [][]byte) error {
	size, err := checkShards(shards, c.k+c.r, true)
	if err != nil {
		return err
	}
	var survivors, lost []int
	for i, s := range shards {
		if s != nil {
			survivors = append(survivors, i)
		} else {
			lost = append(lost, i)
		}
	}
	if len(lost) == 0 {
		return nil
	}
	if len(survivors) < c.k {
		return fmt.Errorf("isal: %d survivors for k=%d: %w", len(survivors), c.k, ErrTooFewShards)
	}
	survivors = survivors[:c.k]

	dm, err := matrix.DecodeMatrix(c.gen, c.k, survivors)
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
	tbls := expandTables(c.f, rec)
	inputs := make([][]byte, c.k)
	for i, s := range survivors {
		inputs[i] = shards[s]
	}
	outputs := make([][]byte, len(lost))
	for i := range outputs {
		outputs[i] = make([]byte, size)
	}
	encodeStrips(tbls, inputs, outputs, size)
	for i, shard := range lost {
		shards[shard] = outputs[i]
	}
	return nil
}
