package gf

import "encoding/binary"

// This file holds the slice- and table-oriented kernels behind the
// repository's hot ECC paths. The element-at-a-time Field primitives
// (Mul, Div, Exp) are convenient for reference code but cost a branch and
// two table indirections per operation; the codecs in internal/bch and
// internal/rs instead precompute byte-indexed multiplication tables for
// their fixed multipliers (code roots, generator coefficients, Chien step
// constants) and stream whole slices through them.

// MulTable is a lookup table for multiplication by one fixed field
// element: t[a] == c*a for every field element a. Build one with
// Field.MulTable for multipliers that are reused across many products
// (syndrome roots, generator coefficients); applying it is a single
// indexed load with no zero-checks or log/exp indirection.
//
// A MulTable is immutable after construction and safe for concurrent use.
type MulTable []Elem

// MulTable returns the multiplication table of c: a size-2^m slice with
// t[a] = c*a.
func (f *Field) MulTable(c Elem) MulTable {
	t := make(MulTable, f.size)
	if c == 0 {
		return t
	}
	lc := int(f.log[c])
	for a := 1; a < f.size; a++ {
		t[a] = f.exp[lc+int(f.log[a])]
	}
	return t
}

// Mul returns c*a via one table lookup.
func (t MulTable) Mul(a Elem) Elem { return t[a] }

// MulBytes sets dst[i] = c*src[i] for fields with m <= 8, where elements
// fit in a byte. dst and src must have equal length and may alias.
func (t MulTable) MulBytes(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: MulBytes length mismatch")
	}
	for i, s := range src {
		dst[i] = byte(t[s])
	}
}

// MulAddBytes XORs c*src[i] into dst[i] for fields with m <= 8; the
// multiply-accumulate step of erasure rebuild and syndrome evaluation.
func (t MulTable) MulAddBytes(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: MulAddBytes length mismatch")
	}
	for i, s := range src {
		dst[i] ^= byte(t[s])
	}
}

// Sqr returns a*a. Squaring is linear over GF(2) and shows up on its own
// in BCH decoding (even-index syndromes are squares of lower ones), so it
// gets a dedicated two-lookup path.
func (f *Field) Sqr(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return f.exp[2*int(f.log[a])]
}

// AddSlice XORs src into dst elementwise (addition in characteristic 2).
// Slices must have equal length.
func AddSlice(dst, src []Elem) {
	if len(dst) != len(src) {
		panic("gf: AddSlice length mismatch")
	}
	for i, s := range src {
		dst[i] ^= s
	}
}

// MulSlice sets dst[i] = a[i]*b[i] elementwise. All slices must have equal
// length; dst may alias a or b.
func (f *Field) MulSlice(dst, a, b []Elem) {
	if len(dst) != len(a) || len(dst) != len(b) {
		panic("gf: MulSlice length mismatch")
	}
	for i := range dst {
		x, y := a[i], b[i]
		if x == 0 || y == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = f.exp[int(f.log[x])+int(f.log[y])]
	}
}

// XORBytes XORs src into dst byte-wise, eight bytes per step where
// possible. It processes min(len(dst), len(src)) bytes and returns that
// count. This is the GF(2) vector addition underneath every delta write,
// parity accumulate and EUR drain in the memory model.
func XORBytes(dst, src []byte) int {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
	return n
}
