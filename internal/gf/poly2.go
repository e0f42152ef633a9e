package gf

import (
	"fmt"
	"math/bits"
	"strings"
)

// Poly2 is a polynomial over GF(2), stored as a little-endian bitset:
// word i, bit j holds the coefficient of x^(64*i+j). The zero polynomial is
// an empty (or all-zero) slice. Poly2 values returned by this package never
// alias their inputs unless documented otherwise.
type Poly2 []uint64

// NewPoly2 builds a polynomial from the exponents whose coefficients are 1.
func NewPoly2(exponents ...int) Poly2 {
	var p Poly2
	for _, e := range exponents {
		p = p.SetCoeff(e, 1)
	}
	return p
}

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly2) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return 64*i + 63 - bits.LeadingZeros64(p[i])
		}
	}
	return -1
}

// IsZero reports whether p is the zero polynomial.
func (p Poly2) IsZero() bool { return p.Degree() < 0 }

// Coeff returns the coefficient (0 or 1) of x^i.
func (p Poly2) Coeff(i int) uint {
	w, b := i/64, uint(i%64)
	if w >= len(p) {
		return 0
	}
	return uint(p[w]>>b) & 1
}

// SetCoeff returns a copy of p with the coefficient of x^i set to c (0 or 1).
func (p Poly2) SetCoeff(i int, c uint) Poly2 {
	w, b := i/64, uint(i%64)
	q := make(Poly2, max(len(p), w+1))
	copy(q, p)
	if c&1 == 1 {
		q[w] |= 1 << b
	} else {
		q[w] &^= 1 << b
	}
	return q
}

// Clone returns an independent copy of p.
func (p Poly2) Clone() Poly2 {
	q := make(Poly2, len(p))
	copy(q, p)
	return q
}

// Add returns p + q (XOR of coefficient sets).
func (p Poly2) Add(q Poly2) Poly2 {
	r := make(Poly2, max(len(p), len(q)))
	copy(r, p)
	for i, w := range q {
		r[i] ^= w
	}
	return r
}

// Mul returns p * q via shift-and-add.
func (p Poly2) Mul(q Poly2) Poly2 {
	if p.IsZero() || q.IsZero() {
		return nil
	}
	r := make(Poly2, len(p)+len(q))
	for i, w := range q {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			shift := 64*i + b
			words, rem := shift/64, uint(shift%64)
			for j, pw := range p {
				r[j+words] ^= pw << rem
				if rem != 0 && j+words+1 < len(r) {
					r[j+words+1] ^= pw >> (64 - rem)
				}
			}
		}
	}
	return r
}

// DivMod returns the quotient and remainder of p / d. It panics if d is the
// zero polynomial.
func (p Poly2) DivMod(d Poly2) (quo, rem Poly2) {
	dd := d.Degree()
	if dd < 0 {
		panic("gf: Poly2 division by zero polynomial")
	}
	rem = p.Clone()
	pd := rem.Degree()
	if pd < dd {
		return nil, rem
	}
	quo = make(Poly2, pd/64+1)
	for pd >= dd {
		shift := pd - dd
		quo[shift/64] |= 1 << uint(shift%64)
		// rem -= d << shift, done in place.
		words, r := shift/64, uint(shift%64)
		for j, dw := range d {
			if j+words < len(rem) {
				rem[j+words] ^= dw << r
			}
			if r != 0 && j+words+1 < len(rem) {
				rem[j+words+1] ^= dw >> (64 - r)
			}
		}
		pd = rem.Degree()
	}
	return quo, rem
}

// String renders p as a sum of powers of x, highest degree first. No
// production code prints a Poly2, but the linker keeps String in every
// binary that links bch (a bch.Code holds its generator as a Poly2 and
// is used as an interface value), so moving it into a test file would
// shift all code laid out after gf.
func (p Poly2) String() string {
	d := p.Degree()
	if d < 0 {
		return "0"
	}
	var terms []string
	for i := d; i >= 0; i-- {
		if p.Coeff(i) == 1 {
			switch i {
			case 0:
				terms = append(terms, "1")
			case 1:
				terms = append(terms, "x")
			default:
				terms = append(terms, fmt.Sprintf("x^%d", i))
			}
		}
	}
	return strings.Join(terms, "+")
}
