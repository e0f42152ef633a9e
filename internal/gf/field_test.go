package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFieldSupportedDegrees(t *testing.T) {
	for m := uint(2); m <= 16; m++ {
		f, err := NewField(m)
		if err != nil {
			t.Fatalf("NewField(%d): %v", m, err)
		}
		if f.Size() != 1<<m {
			t.Errorf("m=%d: Size()=%d, want %d", m, f.Size(), 1<<m)
		}
		if f.N() != 1<<m-1 {
			t.Errorf("m=%d: N()=%d, want %d", m, f.N(), 1<<m-1)
		}
	}
}

func TestNewFieldRejectsBadDegrees(t *testing.T) {
	for _, m := range []uint{0, 1, 17, 32} {
		if _, err := NewField(m); err == nil {
			t.Errorf("NewField(%d): expected error", m)
		}
	}
}

func TestNewFieldPolyRejectsNonPrimitive(t *testing.T) {
	// x^4 + x^3 + x^2 + x + 1 is irreducible but NOT primitive over GF(2):
	// alpha has order 5, not 15.
	if _, err := NewFieldPoly(4, 0x1F); err == nil {
		t.Error("expected error for non-primitive polynomial x^4+x^3+x^2+x+1")
	}
	// x^4 + x^2 + 1 = (x^2+x+1)^2 is reducible.
	if _, err := NewFieldPoly(4, 0x15); err == nil {
		t.Error("expected error for reducible polynomial x^4+x^2+1")
	}
	// Wrong degree encoding.
	if _, err := NewFieldPoly(4, 0x7); err == nil {
		t.Error("expected error for degree mismatch")
	}
}

func TestGF16KnownTable(t *testing.T) {
	// GF(2^4) with x^4+x+1: classic table, alpha^4 = alpha + 1 = 0b0011.
	f := MustField(4)
	want := []Elem{1, 2, 4, 8, 3, 6, 12, 11, 5, 10, 7, 14, 15, 13, 9}
	for i, w := range want {
		if got := f.Exp(i); got != w {
			t.Errorf("alpha^%d = %d, want %d", i, got, w)
		}
	}
}

func TestMulDivInverse(t *testing.T) {
	f := MustField(8)
	for a := 1; a < f.Size(); a++ {
		inv := f.Inv(Elem(a))
		if got := f.Mul(Elem(a), inv); got != 1 {
			t.Fatalf("a=%d: a*Inv(a)=%d, want 1", a, got)
		}
		if got := f.Div(1, Elem(a)); got != inv {
			t.Fatalf("a=%d: Div(1,a)=%d, want Inv(a)=%d", a, got, inv)
		}
	}
}

func TestMulByZero(t *testing.T) {
	f := MustField(8)
	for a := 0; a < f.Size(); a++ {
		if f.Mul(Elem(a), 0) != 0 || f.Mul(0, Elem(a)) != 0 {
			t.Fatalf("a=%d: multiplication by zero is nonzero", a)
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	f := MustField(8)
	defer func() {
		if recover() == nil {
			t.Error("Div by zero did not panic")
		}
	}()
	f.Div(5, 0)
}

func TestInvZeroPanics(t *testing.T) {
	f := MustField(8)
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) did not panic")
		}
	}()
	f.Inv(0)
}

func TestLogZeroPanics(t *testing.T) {
	f := MustField(8)
	defer func() {
		if recover() == nil {
			t.Error("Log(0) did not panic")
		}
	}()
	f.Log(0)
}

func TestExpNegativeAndWrap(t *testing.T) {
	f := MustField(8)
	if f.Exp(-1) != f.Exp(f.N()-1) {
		t.Error("Exp(-1) != Exp(n-1)")
	}
	if f.Exp(f.N()) != 1 {
		t.Error("Exp(n) != 1")
	}
	if f.Exp(3*f.N()+7) != f.Exp(7) {
		t.Error("Exp does not wrap modulo n")
	}
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	f := MustField(8)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := Elem(rng.Intn(f.Size()))
		k := rng.Intn(600)
		want := Elem(1)
		for i := 0; i < k; i++ {
			want = f.Mul(want, a)
		}
		if got := f.Pow(a, k); got != want {
			t.Fatalf("Pow(%d,%d)=%d, want %d", a, k, got, want)
		}
	}
}

// Property: multiplication is associative and commutative, and distributes
// over addition, for all fields we rely on.
func TestFieldAxiomsQuick(t *testing.T) {
	for _, m := range []uint{4, 8, 10, 12} {
		f := MustField(m)
		mask := Elem(f.Size() - 1)
		assoc := func(a, b, c Elem) bool {
			a, b, c = a&mask, b&mask, c&mask
			return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
		}
		comm := func(a, b Elem) bool {
			a, b = a&mask, b&mask
			return f.Mul(a, b) == f.Mul(b, a)
		}
		dist := func(a, b, c Elem) bool {
			a, b, c = a&mask, b&mask, c&mask
			return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
		}
		for name, prop := range map[string]any{"assoc": assoc, "comm": comm, "dist": dist} {
			if err := quick.Check(prop, nil); err != nil {
				t.Errorf("m=%d %s: %v", m, name, err)
			}
		}
	}
}

// Property: the Frobenius map a -> a^2 is additive in characteristic 2.
func TestFrobeniusAdditiveQuick(t *testing.T) {
	f := MustField(8)
	prop := func(a, b Elem) bool {
		a &= 0xFF
		b &= 0xFF
		lhs := f.Pow(f.Add(a, b), 2)
		rhs := f.Add(f.Pow(a, 2), f.Pow(b, 2))
		return lhs == rhs
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStringer(t *testing.T) {
	f := MustField(8)
	if f.String() != "GF(2^8) [poly=0x11d]" {
		t.Errorf("unexpected String(): %q", f.String())
	}
}

func BenchmarkMulGF256(b *testing.B) {
	f := MustField(8)
	b.ReportAllocs()
	var acc Elem = 1
	for i := 0; i < b.N; i++ {
		acc = f.Mul(acc, Elem(i%255)+1)
	}
	_ = acc
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
