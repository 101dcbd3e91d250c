// Package gf implements arithmetic over binary Galois fields GF(2^w) for
// word sizes w in [1, 16].
//
// Erasure codes perform all of their encoding and decoding arithmetic over a
// finite field. This package provides the field itself: multiplication,
// division, inversion and exponentiation of field elements, backed by
// logarithm/antilogarithm tables for fast operation.
//
// Field elements are represented as uint32 values whose low w bits are the
// coefficients of a polynomial over GF(2); addition is bitwise XOR. Each
// field is constructed from a fixed primitive polynomial (see poly.go), so
// element representations are stable across processes — a property the
// on-disk stripe formats rely on.
package gf

import (
	"fmt"
)

// MaxW is the largest supported word size. Fields up to GF(2^16) cover every
// parameterization used by the paper (w = 8) and its future-work sweep
// (w in {4, 8, 16}).
const MaxW = 16

// Field is a binary extension field GF(2^w). It is immutable after
// construction and safe for concurrent use.
type Field struct {
	w      uint     // word size; field has 2^w elements
	prim   uint32   // primitive polynomial, including the x^w term
	size   uint32   // 2^w
	mask   uint32   // 2^w - 1
	logTbl []uint16 // log base alpha; logTbl[0] is unused
	expTbl []uint32 // alpha^i for i in [0, 2*(size-1))
	mulTbl []uint8  // full 256x256 product table, only for w == 8
	invTbl []uint32 // multiplicative inverses, indexed by element
}

// NewField constructs GF(2^w) using the package's default primitive
// polynomial for w. It returns an error if w is outside [1, MaxW].
func NewField(w uint) (*Field, error) {
	if w < 1 || w > MaxW {
		return nil, fmt.Errorf("gf: unsupported word size w=%d (want 1..%d)", w, MaxW)
	}
	return newFieldPoly(w, DefaultPrimitivePoly(w))
}

// MustField is like NewField but panics on error. It is intended for
// package-level initialization with known-good parameters.
func MustField(w uint) *Field {
	f, err := NewField(w)
	if err != nil {
		panic(err)
	}
	return f
}

// newFieldPoly builds the field from an explicit primitive polynomial.
func newFieldPoly(w uint, prim uint32) (*Field, error) {
	f := &Field{
		w:    w,
		prim: prim,
		size: 1 << w,
		mask: (1 << w) - 1,
	}
	if err := f.buildTables(); err != nil {
		return nil, err
	}
	return f, nil
}

// buildTables fills the log/exp tables by repeatedly multiplying by the
// generator alpha = x (i.e. 2). For a primitive polynomial, powers of alpha
// enumerate every nonzero element exactly once.
func (f *Field) buildTables() error {
	n := int(f.size)
	f.logTbl = make([]uint16, n)
	f.expTbl = make([]uint32, 2*(n-1))

	x := uint32(1)
	for i := 0; i < n-1; i++ {
		if x == 1 && i != 0 {
			return fmt.Errorf("gf: polynomial %#x is not primitive for w=%d (cycle length %d)", f.prim, f.w, i)
		}
		f.expTbl[i] = x
		f.logTbl[x] = uint16(i)
		x = f.mulSlow(x, 2)
	}
	if x != 1 {
		return fmt.Errorf("gf: polynomial %#x is not primitive for w=%d", f.prim, f.w)
	}
	// Mirror the exp table so Mul can index log(a)+log(b) without a modulo.
	copy(f.expTbl[n-1:], f.expTbl[:n-1])

	f.invTbl = make([]uint32, n)
	for e := 1; e < n; e++ {
		// a^-1 = alpha^((size-1) - log a)
		f.invTbl[e] = f.expTbl[(n-1)-int(f.logTbl[e])]
	}

	if f.w == 8 {
		f.mulTbl = make([]uint8, 256*256)
		for a := 0; a < 256; a++ {
			for b := 0; b < 256; b++ {
				f.mulTbl[a<<8|b] = uint8(f.mulLog(uint32(a), uint32(b)))
			}
		}
	}
	return nil
}

// mulSlow multiplies by shift-and-reduce. Used only during table
// construction and as a test oracle (exported via MulSlow).
func (f *Field) mulSlow(a, b uint32) uint32 {
	var p uint32
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		b >>= 1
		a <<= 1
		if a&f.size != 0 {
			a ^= f.prim
		}
	}
	return p & f.mask
}

// mulLog multiplies via the log/exp tables.
func (f *Field) mulLog(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.expTbl[int(f.logTbl[a])+int(f.logTbl[b])]
}

// W returns the field's word size w.
func (f *Field) W() uint { return f.w }

// Size returns the number of field elements, 2^w.
func (f *Field) Size() uint32 { return f.size }

// Mask returns 2^w - 1, the largest element value.
func (f *Field) Mask() uint32 { return f.mask }

// Poly returns the primitive polynomial used to construct the field,
// including the leading x^w term.
func (f *Field) Poly() uint32 { return f.prim }

// Valid reports whether e is a representable element of the field.
func (f *Field) Valid(e uint32) bool { return e <= f.mask }

// Add returns a + b. In characteristic-2 fields addition and subtraction are
// both bitwise XOR.
func (f *Field) Add(a, b uint32) uint32 { return (a ^ b) & f.mask }

// Sub returns a - b, which equals a + b in GF(2^w).
func (f *Field) Sub(a, b uint32) uint32 { return (a ^ b) & f.mask }

// Mul returns the field product a * b.
func (f *Field) Mul(a, b uint32) uint32 {
	if f.mulTbl != nil {
		return uint32(f.mulTbl[(a&0xff)<<8|(b&0xff)])
	}
	return f.mulLog(a&f.mask, b&f.mask)
}

// MulSlow returns the product computed by bitwise shift-and-reduce, without
// tables. It exists as an independent oracle for testing the table paths.
func (f *Field) MulSlow(a, b uint32) uint32 { return f.mulSlow(a&f.mask, b&f.mask) }

// Inv returns the multiplicative inverse of a. Inverting zero is a caller
// bug in every algorithm this package serves, so it panics.
func (f *Field) Inv(a uint32) uint32 {
	a &= f.mask
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.invTbl[a]
}

// Div returns a / b. It panics if b is zero.
func (f *Field) Div(a, b uint32) uint32 {
	b &= f.mask
	if b == 0 {
		panic("gf: division by zero")
	}
	a &= f.mask
	if a == 0 {
		return 0
	}
	d := int(f.logTbl[a]) - int(f.logTbl[b])
	if d < 0 {
		d += int(f.size) - 1
	}
	return f.expTbl[d]
}

// Exp returns base raised to the power e (an ordinary integer exponent).
func (f *Field) Exp(base uint32, e int) uint32 {
	base &= f.mask
	if base == 0 {
		if e == 0 {
			return 1
		}
		return 0
	}
	n := int(f.size) - 1
	le := (int(f.logTbl[base]) * (e % n)) % n
	if le < 0 {
		le += n
	}
	return f.expTbl[le]
}

// Log returns the discrete logarithm of a to base alpha. It panics for zero,
// which has no logarithm.
func (f *Field) Log(a uint32) uint16 {
	a &= f.mask
	if a == 0 {
		panic("gf: log of zero")
	}
	return f.logTbl[a]
}

// Alpha returns alpha^i, the i-th power of the field generator.
func (f *Field) Alpha(i int) uint32 {
	n := int(f.size) - 1
	i %= n
	if i < 0 {
		i += n
	}
	return f.expTbl[i]
}

// DotProduct returns the inner product sum_i a[i]*b[i] over the field.
// The two slices must have equal length.
func (f *Field) DotProduct(a, b []uint32) uint32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("gf: dot product length mismatch %d vs %d", len(a), len(b)))
	}
	var s uint32
	for i := range a {
		s ^= f.Mul(a[i], b[i])
	}
	return s & f.mask
}

// PolyEval evaluates the polynomial with coefficients coef (coef[0] is the
// constant term) at point x, using Horner's rule.
func (f *Field) PolyEval(coef []uint32, x uint32) uint32 {
	var acc uint32
	for i := len(coef) - 1; i >= 0; i-- {
		acc = f.Mul(acc, x) ^ (coef[i] & f.mask)
	}
	return acc & f.mask
}
