package gf

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

// PolyEval evaluates p at x using Horner's rule.
func (f *Field) PolyEval(p Poly, x Elem) Elem {
	var acc Elem
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Mul(acc, x) ^ p[i]
	}
	return acc
}
