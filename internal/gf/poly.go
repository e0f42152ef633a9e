package gf

import (
	"fmt"
	"strings"
)

// Poly is a polynomial with coefficients in a Field, stored little-endian:
// p[i] is the coefficient of x^i. The zero polynomial is an empty slice.
// Poly methods take the field explicitly so that Poly stays a plain slice.
type Poly []Elem

// PolyDeg returns the degree of p, or -1 for the zero polynomial.
func PolyDeg(p Poly) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// PolyTrim returns p with trailing zero coefficients removed.
func PolyTrim(p Poly) Poly { return p[:PolyDeg(p)+1] }

// PolyClone returns an independent copy of p.
func PolyClone(p Poly) Poly {
	q := make(Poly, len(p))
	copy(q, p)
	return q
}

// PolyAdd returns p + q over f.
func (f *Field) PolyAdd(p, q Poly) Poly {
	r := make(Poly, max(len(p), len(q)))
	copy(r, p)
	for i, c := range q {
		r[i] ^= c
	}
	return PolyTrim(r)
}

// PolyScale returns c * p over f.
func (f *Field) PolyScale(p Poly, c Elem) Poly {
	if c == 0 {
		return nil
	}
	r := make(Poly, len(p))
	for i, a := range p {
		r[i] = f.Mul(a, c)
	}
	return PolyTrim(r)
}

// PolyMul returns p * q over f.
func (f *Field) PolyMul(p, q Poly) Poly {
	dp, dq := PolyDeg(p), PolyDeg(q)
	if dp < 0 || dq < 0 {
		return nil
	}
	r := make(Poly, dp+dq+1)
	for i, a := range p[:dp+1] {
		if a == 0 {
			continue
		}
		la := int(f.log[a])
		for j, b := range q[:dq+1] {
			if b == 0 {
				continue
			}
			r[i+j] ^= f.exp[la+int(f.log[b])]
		}
	}
	return PolyTrim(r)
}

// PolyMulXk returns p * x^k.
func (f *Field) PolyMulXk(p Poly, k int) Poly {
	d := PolyDeg(p)
	if d < 0 {
		return nil
	}
	r := make(Poly, d+1+k)
	copy(r[k:], p[:d+1])
	return r
}

// PolyDivMod returns the quotient and remainder of p / d over f. It panics
// if d is the zero polynomial.
func (f *Field) PolyDivMod(p, d Poly) (quo, rem Poly) {
	dd := PolyDeg(d)
	if dd < 0 {
		panic("gf: Poly division by zero polynomial")
	}
	rem = PolyClone(p)
	lead := f.Inv(d[dd])
	for {
		rd := PolyDeg(rem)
		if rd < dd {
			return PolyTrim(quo), PolyTrim(rem)
		}
		c := f.Mul(rem[rd], lead)
		shift := rd - dd
		if quo == nil {
			quo = make(Poly, shift+1)
		}
		quo[shift] = c
		for i := 0; i <= dd; i++ {
			rem[i+shift] ^= f.Mul(d[i], c)
		}
	}
}

// PolyEval evaluates p at x using Horner's rule.
func (f *Field) PolyEval(p Poly, x Elem) Elem {
	var acc Elem
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Mul(acc, x) ^ p[i]
	}
	return acc
}

// PolyDeriv returns the formal derivative of p. In characteristic 2 the
// even-power terms vanish and odd powers keep their coefficients:
// d/dx sum(c_i x^i) = sum over odd i of c_i x^(i-1).
func (f *Field) PolyDeriv(p Poly) Poly {
	if len(p) <= 1 {
		return nil
	}
	r := make(Poly, len(p)-1)
	for i := 1; i < len(p); i += 2 {
		r[i-1] = p[i]
	}
	return PolyTrim(r)
}

// PolyString renders p with explicit coefficients, highest degree first.
func PolyString(p Poly) string {
	d := PolyDeg(p)
	if d < 0 {
		return "0"
	}
	var terms []string
	for i := d; i >= 0; i-- {
		if p[i] == 0 {
			continue
		}
		switch i {
		case 0:
			terms = append(terms, fmt.Sprintf("%d", p[i]))
		case 1:
			terms = append(terms, fmt.Sprintf("%d·x", p[i]))
		default:
			terms = append(terms, fmt.Sprintf("%d·x^%d", p[i], i))
		}
	}
	return strings.Join(terms, " + ")
}
