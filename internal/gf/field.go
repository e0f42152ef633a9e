// Package gf implements arithmetic over binary Galois fields GF(2^m) and
// polynomials over GF(2) and GF(2^m).
//
// It is the substrate for the BCH and Reed-Solomon codecs used throughout
// this repository: GF(2^8) backs the per-block Reed-Solomon code that
// provides chip-failure protection, and GF(2^10)..GF(2^13) back the very
// long BCH ECC words (VLEWs) that provide boot-time bit-error protection.
//
// All field elements are represented as uint16 in polynomial basis; the
// zero value is the additive identity. Fields are immutable after creation
// and safe for concurrent use.
package gf

import "fmt"

// Elem is an element of a binary Galois field in polynomial-basis
// representation. Only the low m bits are meaningful for GF(2^m).
type Elem = uint16

// defaultPrimitive maps m to a primitive polynomial of degree m over GF(2),
// encoded with bit i set when x^i has coefficient 1 (bit m is always set).
// These are the conventional minimum-weight primitive polynomials.
var defaultPrimitive = map[uint]uint32{
	2:  0x7,     // x^2+x+1
	3:  0xB,     // x^3+x+1
	4:  0x13,    // x^4+x+1
	5:  0x25,    // x^5+x^2+1
	6:  0x43,    // x^6+x+1
	7:  0x89,    // x^7+x^3+1
	8:  0x11D,   // x^8+x^4+x^3+x^2+1
	9:  0x211,   // x^9+x^4+1
	10: 0x409,   // x^10+x^3+1
	11: 0x805,   // x^11+x^2+1
	12: 0x1053,  // x^12+x^6+x^4+x+1
	13: 0x201B,  // x^13+x^4+x^3+x+1
	14: 0x4443,  // x^14+x^10+x^6+x+1
	15: 0x8003,  // x^15+x+1
	16: 0x1100B, // x^16+x^12+x^3+x+1
}

// Field is GF(2^m) constructed from a primitive polynomial. It precomputes
// exponential and logarithm tables so that multiplication, division and
// exponentiation are table lookups.
type Field struct {
	m    uint
	size int      // 2^m
	n    int      // 2^m - 1, the multiplicative order of alpha
	poly uint32   // primitive polynomial
	exp  []Elem   // exp[i] = alpha^i for i in [0, 2n); doubled to skip a mod
	log  []uint16 // log[a] = i with alpha^i = a; log[0] is unused
}

// NewField returns GF(2^m) built from the package's default primitive
// polynomial for m. Supported m are 2 through 16.
func NewField(m uint) (*Field, error) {
	poly, ok := defaultPrimitive[m]
	if !ok {
		return nil, fmt.Errorf("gf: no default primitive polynomial for m=%d (want 2..16)", m)
	}
	return NewFieldPoly(m, poly)
}

// MustField is NewField but panics on error; intended for package-level
// initialisation with known-good m.
func MustField(m uint) *Field {
	f, err := NewField(m)
	if err != nil {
		panic(err)
	}
	return f
}

// NewFieldPoly returns GF(2^m) built from the given degree-m polynomial.
// The polynomial must be primitive; this is verified during table
// construction (alpha must have multiplicative order 2^m-1).
func NewFieldPoly(m uint, poly uint32) (*Field, error) {
	if m < 2 || m > 16 {
		return nil, fmt.Errorf("gf: field degree m=%d out of range [2,16]", m)
	}
	if poly>>m != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x does not have degree %d", poly, m)
	}
	f := &Field{
		m:    m,
		size: 1 << m,
		n:    1<<m - 1,
		poly: poly,
	}
	f.exp = make([]Elem, 2*f.n)
	f.log = make([]uint16, f.size)
	x := uint32(1)
	for i := 0; i < f.n; i++ {
		if x == 1 && i != 0 {
			return nil, fmt.Errorf("gf: polynomial %#x is not primitive for m=%d (alpha has order %d)", poly, m, i)
		}
		f.exp[i] = Elem(x)
		f.exp[i+f.n] = Elem(x)
		f.log[x] = uint16(i)
		x <<= 1
		if x&(1<<m) != 0 {
			x ^= poly
		}
	}
	if f.exp[f.n-1] == 1 && f.n > 1 {
		return nil, fmt.Errorf("gf: polynomial %#x is not primitive for m=%d", poly, m)
	}
	return f, nil
}

// M returns the field degree m of GF(2^m).
func (f *Field) M() uint { return f.m }

// Size returns 2^m, the number of field elements.
func (f *Field) Size() int { return f.size }

// N returns 2^m - 1, the multiplicative group order (and the natural code
// length of codes built over this field).
func (f *Field) N() int { return f.n }

// Primitive returns the primitive polynomial used to construct the field.
func (f *Field) Primitive() uint32 { return f.poly }

// Add returns a + b. In characteristic 2 addition and subtraction are the
// same operation: bitwise XOR.
func (f *Field) Add(a, b Elem) Elem { return a ^ b }

// Mul returns a * b.
//
//chipkill:seqread
func (f *Field) Mul(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+int(f.log[b])]
}

// Div returns a / b. It panics if b is zero.
//
//chipkill:seqread
func (f *Field) Div(a, b Elem) Elem {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[int(f.log[a])-int(f.log[b])+f.n]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func (f *Field) Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: zero has no inverse")
	}
	return f.exp[f.n-int(f.log[a])]
}

// Exp returns alpha^i for any integer i (negative allowed).
func (f *Field) Exp(i int) Elem {
	i %= f.n
	if i < 0 {
		i += f.n
	}
	return f.exp[i]
}

// ExpTable returns the field's doubled exponential table: ExpTable()[i] ==
// alpha^i for every i in [0, 2N()), so a sum of two logarithms indexes it
// without a reduction. The table is shared, not copied; callers must not
// modify it. It exists for scans that issue many independent alpha^i
// loads (the BCH root search), where a method call per load would hide
// the loads from each other.
func (f *Field) ExpTable() []Elem { return f.exp }

// Log returns the discrete logarithm of a to base alpha. It panics if a is
// zero, which has no logarithm.
//
//chipkill:seqread
func (f *Field) Log(a Elem) int {
	if a == 0 {
		panic("gf: zero has no logarithm")
	}
	return int(f.log[a])
}

// Pow returns a^k for k >= 0, with 0^0 defined as 1.
func (f *Field) Pow(a Elem, k int) Elem {
	if k == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	e := (int(f.log[a]) * k) % f.n
	if e < 0 {
		e += f.n
	}
	return f.exp[e]
}

// String implements fmt.Stringer.
func (f *Field) String() string {
	return fmt.Sprintf("GF(2^%d) [poly=%#x]", f.m, f.poly)
}
