package gf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func randPoly(rng *rand.Rand, f *Field, maxDeg int) Poly {
	n := rng.Intn(maxDeg + 2)
	p := make(Poly, n)
	for i := range p {
		p[i] = Elem(rng.Intn(f.Size()))
	}
	return PolyTrim(p)
}

func TestPolyDeg(t *testing.T) {
	if d := PolyDeg(nil); d != -1 {
		t.Errorf("PolyDeg(nil)=%d", d)
	}
	if d := PolyDeg(Poly{0, 0, 0}); d != -1 {
		t.Errorf("PolyDeg(zeros)=%d", d)
	}
	if d := PolyDeg(Poly{1, 0, 5, 0}); d != 2 {
		t.Errorf("PolyDeg=%d, want 2", d)
	}
}

func TestPolyAddCancels(t *testing.T) {
	f := MustField(8)
	p := Poly{1, 2, 3}
	if got := f.PolyAdd(p, p); PolyDeg(got) != -1 {
		t.Errorf("p+p=%v, want zero", got)
	}
}

func TestPolyMulKnown(t *testing.T) {
	f := MustField(8)
	// (x + 1)(x + 2) = x^2 + 3x + 2 over GF(256): 1^2=1*2... careful:
	// coefficients multiply in the field; (x+a)(x+b) = x^2 + (a+b)x + ab.
	a, b := Elem(7), Elem(9)
	got := f.PolyMul(Poly{a, 1}, Poly{b, 1})
	want := Poly{f.Mul(a, b), f.Add(a, b), 1}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPolyEvalHorner(t *testing.T) {
	f := MustField(8)
	// p(x) = 3x^2 + x + 5 at x=2: 3*4 + 2 + 5 in GF(256) arithmetic.
	p := Poly{5, 1, 3}
	x := Elem(2)
	want := f.Add(f.Add(f.Mul(3, f.Mul(x, x)), x), 5)
	if got := f.PolyEval(p, x); got != want {
		t.Errorf("eval=%d, want %d", got, want)
	}
	if got := f.PolyEval(nil, 17); got != 0 {
		t.Errorf("eval of zero poly = %d", got)
	}
}

func TestPolyEvalRootsOfProduct(t *testing.T) {
	f := MustField(8)
	// Build (x - r1)(x - r2)(x - r3); each ri must be a root.
	roots := []Elem{3, 77, 200}
	p := Poly{1}
	for _, r := range roots {
		p = f.PolyMul(p, Poly{r, 1}) // x + r == x - r in char 2
	}
	for _, r := range roots {
		if v := f.PolyEval(p, r); v != 0 {
			t.Errorf("p(%d)=%d, want 0", r, v)
		}
	}
	if v := f.PolyEval(p, 5); v == 0 {
		t.Error("non-root evaluated to 0")
	}
}

func TestPolyString(t *testing.T) {
	if s := PolyString(Poly{5, 0, 2}); s != "2·x^2 + 5" {
		t.Errorf("PolyString=%q", s)
	}
	if s := PolyString(nil); s != "0" {
		t.Errorf("PolyString(nil)=%q", s)
	}
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
