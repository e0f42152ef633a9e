package gf

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoly2(rng *rand.Rand, maxWords int) Poly2 {
	n := rng.Intn(maxWords + 1)
	p := make(Poly2, n)
	for i := range p {
		p[i] = rng.Uint64()
	}
	return p
}

func TestPoly2Degree(t *testing.T) {
	cases := []struct {
		p    Poly2
		want int
	}{
		{nil, -1},
		{Poly2{0}, -1},
		{Poly2{1}, 0},
		{Poly2{2}, 1},
		{Poly2{0x8000000000000000}, 63},
		{Poly2{0, 1}, 64},
		{NewPoly2(100, 3, 0), 100},
	}
	for _, c := range cases {
		if got := c.p.Degree(); got != c.want {
			t.Errorf("Degree(%v)=%d, want %d", c.p, got, c.want)
		}
	}
}

func TestPoly2SetCoeffAndCoeff(t *testing.T) {
	p := NewPoly2(0, 5, 130)
	for _, i := range []int{0, 5, 130} {
		if p.Coeff(i) != 1 {
			t.Errorf("Coeff(%d)=0, want 1", i)
		}
	}
	for _, i := range []int{1, 4, 6, 64, 129, 131, 500} {
		if p.Coeff(i) != 0 {
			t.Errorf("Coeff(%d)=1, want 0", i)
		}
	}
	q := p.SetCoeff(5, 0)
	if q.Coeff(5) != 0 || p.Coeff(5) != 1 {
		t.Error("SetCoeff must not mutate the receiver")
	}
}

func TestPoly2String(t *testing.T) {
	if s := NewPoly2(4, 1, 0).String(); s != "x^4+x+1" {
		t.Errorf("String()=%q, want x^4+x+1", s)
	}
	if s := (Poly2)(nil).String(); s != "0" {
		t.Errorf("zero String()=%q", s)
	}
}

func TestPoly2MulKnown(t *testing.T) {
	// (x+1)(x+1) = x^2+1 over GF(2).
	p := NewPoly2(1, 0)
	got := p.Mul(p)
	if !got.Equal(NewPoly2(2, 0)) {
		t.Errorf("(x+1)^2 = %v, want x^2+1", got)
	}
	// (x^2+x+1)(x+1) = x^3+1.
	got = NewPoly2(2, 1, 0).Mul(NewPoly2(1, 0))
	if !got.Equal(NewPoly2(3, 0)) {
		t.Errorf("got %v, want x^3+1", got)
	}
}

func TestPoly2DivModKnown(t *testing.T) {
	// x^3+1 = (x+1)(x^2+x+1) + 0
	quo, rem := NewPoly2(3, 0).DivMod(NewPoly2(1, 0))
	if !quo.Equal(NewPoly2(2, 1, 0)) || !rem.IsZero() {
		t.Errorf("DivMod: quo=%v rem=%v", quo, rem)
	}
	// x^4 mod (x^4+x+1) = x+1
	_, rem = NewPoly2(4).DivMod(NewPoly2(4, 1, 0))
	if !rem.Equal(NewPoly2(1, 0)) {
		t.Errorf("x^4 mod prim = %v, want x+1", rem)
	}
}

func TestPoly2DivModRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		p := randPoly2(rng, 6)
		d := randPoly2(rng, 3)
		if d.IsZero() {
			continue
		}
		quo, rem := p.DivMod(d)
		if rem.Degree() >= d.Degree() {
			t.Fatalf("remainder degree %d >= divisor degree %d", rem.Degree(), d.Degree())
		}
		back := quo.Mul(d).Add(rem)
		if !back.Equal(p) {
			t.Fatalf("trial %d: quo*d+rem != p", trial)
		}
	}
}

func TestPoly2Weight(t *testing.T) {
	if w := NewPoly2(0, 1, 64, 100).Weight(); w != 4 {
		t.Errorf("Weight=%d, want 4", w)
	}
	if w := (Poly2)(nil).Weight(); w != 0 {
		t.Errorf("zero Weight=%d", w)
	}
}

// Properties over random polynomials, via testing/quick with a custom
// generator (raw []uint64 values work directly since Poly2 is a slice type).
func TestPoly2RingAxiomsQuick(t *testing.T) {
	mulComm := func(a, b Poly2) bool { return a.Mul(b).Equal(b.Mul(a)) }
	mulAssoc := func(a, b, c Poly2) bool {
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	dist := func(a, b, c Poly2) bool {
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	addSelfZero := func(a Poly2) bool { return a.Add(a).IsZero() }
	cfg := &quick.Config{MaxCount: 60}
	for name, prop := range map[string]any{
		"mulComm": mulComm, "mulAssoc": mulAssoc, "dist": dist, "addSelfZero": addSelfZero,
	} {
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPoly2DegreeOfProduct(t *testing.T) {
	prop := func(a, b Poly2) bool {
		if a.IsZero() || b.IsZero() {
			return a.Mul(b).IsZero()
		}
		return a.Mul(b).Degree() == a.Degree()+b.Degree()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Equal reports whether p and q represent the same polynomial.
func (p Poly2) Equal(q Poly2) bool {
	n := max(len(p), len(q))
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// Weight returns the number of nonzero coefficients.
func (p Poly2) Weight() int {
	w := 0
	for _, word := range p {
		w += bits.OnesCount64(word)
	}
	return w
}
