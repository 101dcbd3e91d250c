package gf

import (
	"encoding/binary"
	"fmt"
)

// This file provides bulk ("region") operations over GF(2^8): multiplying
// every byte of a buffer by a scalar and accumulating into a destination.
// These are the primitives a full-field (non-bitmatrix) Reed-Solomon
// implementation such as ISA-L is built from. Word-sized XOR helpers used by
// all the XOR-based coders also live here.

// MulTable is the 256-entry product table for one scalar c over GF(2^8):
// MulTable[b] = c*b. ISA-L's vectorized kernels hold the same content as two
// 16-entry nibble tables for PSHUFB; the split form is in NibbleTable.
type MulTable [256]uint8

// MulTable8 returns the region-multiplication table for scalar c over
// GF(2^8). The field must have w == 8.
func (f *Field) MulTable8(c uint8) *MulTable {
	if f.w != 8 {
		panic(fmt.Sprintf("gf: MulTable8 requires w=8 field, have w=%d", f.w))
	}
	var t MulTable
	for b := 0; b < 256; b++ {
		t[b] = uint8(f.Mul(uint32(c), uint32(b)))
	}
	return &t
}

// NibbleTable is the split-table form of a scalar multiplication over
// GF(2^8): c*b = Lo[b&0xf] ^ Hi[b>>4]. This is exactly the table layout
// Intel ISA-L feeds to PSHUFB; our isal-style kernels consume it to stay
// structurally faithful to that library.
type NibbleTable struct {
	Lo [16]uint8
	Hi [16]uint8
}

// NibbleTable8 returns the split-nibble multiplication tables for scalar c
// over GF(2^8). The field must have w == 8.
func (f *Field) NibbleTable8(c uint8) NibbleTable {
	if f.w != 8 {
		panic(fmt.Sprintf("gf: NibbleTable8 requires w=8 field, have w=%d", f.w))
	}
	var t NibbleTable
	for n := 0; n < 16; n++ {
		t.Lo[n] = uint8(f.Mul(uint32(c), uint32(n)))
		t.Hi[n] = uint8(f.Mul(uint32(c), uint32(n)<<4))
	}
	return t
}

// Mul applies the nibble tables to one byte.
func (t NibbleTable) Mul(b uint8) uint8 {
	return t.Lo[b&0xf] ^ t.Hi[b>>4]
}

// MulRegion sets dst[i] = c * src[i] for every byte, using a product table.
// dst and src must have the same length.
func MulRegion(t *MulTable, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: MulRegion length mismatch")
	}
	for i, b := range src {
		dst[i] = t[b]
	}
}

// MulAddRegion sets dst[i] ^= c * src[i] for every byte.
// dst and src must have the same length.
func MulAddRegion(t *MulTable, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: MulAddRegion length mismatch")
	}
	for i, b := range src {
		dst[i] ^= t[b]
	}
}

// The XOR kernels below walk the buffers in 32-byte steps (16 for the
// eight-source kernel, whose operands outnumber the registers). Each step
// takes one 3-index sub-slice per operand, x[i:i+32:i+32]; its length is a
// constant the compiler can see, so the word loads and stores through
// constant offsets inside the step carry no bounds check. The sources are
// resliced to len(dst) once up front, which leaves one check per step.
// Plain Go with no pointer casts: the same code on every GOARCH, and on
// amd64/arm64 each binary.LittleEndian word access is a single move.

// XorRegion sets dst[i] ^= src[i] for every byte. dst and src must have the
// same length.
func XorRegion(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: XorRegion length mismatch")
	}
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d := dst[i : i+32 : i+32]
		s := src[i : i+32 : i+32]
		putXor(d[0:], le.Uint64(s[0:]))
		putXor(d[8:], le.Uint64(s[8:]))
		putXor(d[16:], le.Uint64(s[16:]))
		putXor(d[24:], le.Uint64(s[24:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// XorRegion2 sets dst[i] ^= a[i] ^ b[i], reading two sources per pass over
// the destination. Multi-source XOR halves the store traffic relative to two
// XorRegion calls; the reduction-grouping schedule in the te codegen lowers
// to these kernels.
func XorRegion2(dst, a, b []byte) {
	if len(dst) != len(a) || len(dst) != len(b) {
		panic("gf: XorRegion2 length mismatch")
	}
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		d := dst[i : i+32 : i+32]
		x := a[i : i+32 : i+32]
		y := b[i : i+32 : i+32]
		putXor(d[0:], le.Uint64(x[0:])^le.Uint64(y[0:]))
		putXor(d[8:], le.Uint64(x[8:])^le.Uint64(y[8:]))
		putXor(d[16:], le.Uint64(x[16:])^le.Uint64(y[16:]))
		putXor(d[24:], le.Uint64(x[24:])^le.Uint64(y[24:]))
	}
	for ; i < n; i++ {
		dst[i] ^= a[i] ^ b[i]
	}
}

// XorRegion4 sets dst[i] ^= a[i] ^ b[i] ^ c[i] ^ d[i] in a single pass.
func XorRegion4(dst, a, b, c, d []byte) {
	if len(dst) != len(a) || len(dst) != len(b) || len(dst) != len(c) || len(dst) != len(d) {
		panic("gf: XorRegion4 length mismatch")
	}
	n := len(dst)
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		o := dst[i : i+32 : i+32]
		w := a[i : i+32 : i+32]
		x := b[i : i+32 : i+32]
		y := c[i : i+32 : i+32]
		z := d[i : i+32 : i+32]
		putXor(o[0:], le.Uint64(w[0:])^le.Uint64(x[0:])^le.Uint64(y[0:])^le.Uint64(z[0:]))
		putXor(o[8:], le.Uint64(w[8:])^le.Uint64(x[8:])^le.Uint64(y[8:])^le.Uint64(z[8:]))
		putXor(o[16:], le.Uint64(w[16:])^le.Uint64(x[16:])^le.Uint64(y[16:])^le.Uint64(z[16:]))
		putXor(o[24:], le.Uint64(w[24:])^le.Uint64(x[24:])^le.Uint64(y[24:])^le.Uint64(z[24:]))
	}
	for ; i < n; i++ {
		dst[i] ^= a[i] ^ b[i] ^ c[i] ^ d[i]
	}
}

// XorRegion8 sets dst[i] ^= XOR of eight sources in a single pass over the
// destination. Eight-way fusion is the widest reduction group the te
// codegen's schedules use.
func XorRegion8(dst []byte, srcs *[8][]byte) {
	n := len(dst)
	for _, s := range srcs {
		if len(s) != n {
			panic("gf: XorRegion8 length mismatch")
		}
	}
	s0, s1, s2, s3 := srcs[0][:n], srcs[1][:n], srcs[2][:n], srcs[3][:n]
	s4, s5, s6, s7 := srcs[4][:n], srcs[5][:n], srcs[6][:n], srcs[7][:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		o := dst[i : i+16 : i+16]
		x0, x1, x2, x3 := s0[i:i+16:i+16], s1[i:i+16:i+16], s2[i:i+16:i+16], s3[i:i+16:i+16]
		x4, x5, x6, x7 := s4[i:i+16:i+16], s5[i:i+16:i+16], s6[i:i+16:i+16], s7[i:i+16:i+16]
		putXor(o[0:], le.Uint64(x0[0:])^le.Uint64(x1[0:])^le.Uint64(x2[0:])^le.Uint64(x3[0:])^
			le.Uint64(x4[0:])^le.Uint64(x5[0:])^le.Uint64(x6[0:])^le.Uint64(x7[0:]))
		putXor(o[8:], le.Uint64(x0[8:])^le.Uint64(x1[8:])^le.Uint64(x2[8:])^le.Uint64(x3[8:])^
			le.Uint64(x4[8:])^le.Uint64(x5[8:])^le.Uint64(x6[8:])^le.Uint64(x7[8:]))
	}
	for ; i < n; i++ {
		dst[i] ^= s0[i] ^ s1[i] ^ s2[i] ^ s3[i] ^ s4[i] ^ s5[i] ^ s6[i] ^ s7[i]
	}
}

// le is the byte order the XOR kernels load and store words in. XOR is
// bytewise, so any order gives the same bytes; little-endian is the one
// amd64 and arm64 fold into a single move.
var le = binary.LittleEndian

// putXor XORs v into the first eight bytes of b.
func putXor(b []byte, v uint64) {
	le.PutUint64(b, le.Uint64(b)^v)
}

// XorRegions sets dst[i] ^= xor of srcs[j][i] over all sources in passes of
// at most fanin sources, each pass dispatched to the widest fused kernel
// (8, 4, 2 or 1 sources) that fits. fanin < 1 is treated as 1. All sources
// must have the destination's length.
func XorRegions(dst []byte, srcs [][]byte, fanin int) {
	for len(srcs) > 0 {
		n := min(fanin, len(srcs))
		switch {
		case n >= 8:
			XorRegion8(dst, (*[8][]byte)(srcs[:8]))
			srcs = srcs[8:]
		case n >= 4:
			XorRegion4(dst, srcs[0], srcs[1], srcs[2], srcs[3])
			srcs = srcs[4:]
		case n >= 2:
			XorRegion2(dst, srcs[0], srcs[1])
			srcs = srcs[2:]
		default:
			XorRegion(dst, srcs[0])
			srcs = srcs[1:]
		}
	}
}

// CopyRegion copies src into dst; both must have the same length. It exists
// so coder code reads uniformly (CopyRegion/XorRegion pairs) and so the
// memcpy-overhead experiment has a single accounting point.
func CopyRegion(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: CopyRegion length mismatch")
	}
	copy(dst, src)
}
