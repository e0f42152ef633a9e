package bch

import (
	"math/rand"
	"testing"

	"chipkillpm/internal/gf"
)

// The r = 264 remainder has two chunk kernels: clmulFeed264 (carry-less
// multiply, where the CPU has it) and slice8Feed (the table fallback). A
// kernel step is GF(2)-linear in (state, data) and neither kernel branches
// on either, so agreeing with polynomial division on every unit vector of
// both proves it on every input. For the table kernel that linearity also
// needs every slice8 entry to equal its definition, which is checked too.

// remainderKernel is one chunk kernel with the tables that drive it.
type remainderKernel struct {
	name string
	enc  *encTables
}

// chunks runs the kernel over whole eight-byte chunks, without feed264's
// zero-skip.
func (k remainderKernel) chunks(s *[5]uint64, data []byte) {
	if k.enc.clmul != nil {
		clmulFeed264(k.enc.clmul, s, data)
		return
	}
	k.enc.slice8Feed(s, data)
}

// remainderKernels returns the table kernel, and the carry-less-multiply
// kernel when this CPU runs it.
func remainderKernels(t testing.TB, c *Code) []remainderKernel {
	ks := []remainderKernel{{"table", c.buildEncTables(false)}}
	if hasCLMUL {
		ks = append(ks, remainderKernel{"clmul", c.buildEncTables(true)})
	} else {
		t.Log("no PCLMULQDQ/SSSE3 on this CPU: only the table kernel is checked")
	}
	return ks
}

// TestDispatchedRemainderKernel pins which kernel New hands the paper's
// code and that it keeps only the row families that kernel reads: with
// carry-less multiply, family 0 alone (the per-byte tail, row and the
// delta-table build); without, all eight for slice8Feed.
func TestDispatchedRemainderKernel(t *testing.T) {
	e := paperCode().enc
	if got := e.clmul != nil; got != hasCLMUL {
		t.Fatalf("paper code carries Barrett constants = %v, CPU support = %v", got, hasCLMUL)
	}
	want := 8
	if hasCLMUL {
		want = 1
	}
	if len(e.slice8) != want {
		t.Fatalf("paper code holds %d slice8 row families, want %d (CLMUL %v)", len(e.slice8), want, hasCLMUL)
	}
}

func TestRemainderKernelsOnBasis(t *testing.T) {
	c := paperCode()
	words := func(p gf.Poly2) [5]uint64 {
		var w [5]uint64
		copy(w[:], p)
		return w
	}
	data := make([]byte, c.DataBytes()) // 32 whole chunks
	for _, k := range remainderKernels(t, c) {
		t.Run(k.name, func(t *testing.T) {
			if k.enc.clmul == nil {
				for pos, rows := range k.enc.slice8 {
					for u, row := range rows {
						want := words(shlMod(gf.Poly2{uint64(u)}, 8*pos+c.r, c.gen))
						if row != want {
							t.Fatalf("slice8[%d][%#x] = %x, want %x", pos, u, row, want)
						}
					}
				}
			}
			// State unit vectors through zero data: x^j * x^(8*256) mod g.
			for j := 0; j < c.r; j++ {
				var s [5]uint64
				s[j/64] = 1 << (j % 64)
				k.chunks(&s, data)
				if want := words(shlMod(gf.NewPoly2(j), 8*len(data), c.gen)); s != want {
					t.Fatalf("state x^%d: got %x, want %x", j, s, want)
				}
			}
			// Data unit vectors from the zero state: x^b * x^r mod g.
			for b := 0; b < 8*len(data); b++ {
				var s [5]uint64
				data[b/8] = 1 << (b % 8)
				k.chunks(&s, data)
				data[b/8] = 0
				if want := words(shlMod(gf.NewPoly2(b), c.r, c.gen)); s != want {
					t.Fatalf("data bit %d: got %x, want %x", b, s, want)
				}
			}
		})
	}
}

// TestRemainderKernelsAgree runs feed264 with each kernel over every
// length 0..300: from random nonzero states (whole chunks plus the
// per-byte tail), from the zero state over data with leading zero bytes
// (the zero-skip), and through zeroFeed.
func TestRemainderKernelsAgree(t *testing.T) {
	c := paperCode()
	ks := remainderKernels(t, c)
	if len(ks) < 2 {
		t.Skip("only the table kernel runs on this CPU")
	}
	table, clmul := ks[0].enc, ks[1].enc
	rng := rand.New(rand.NewSource(328))
	randState := func() []uint64 {
		s := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64() & 0xFF}
		if s[0]|s[1]|s[2]|s[3]|s[4] == 0 {
			s[0] = 1
		}
		return s
	}
	check := func(what string, n int, got, want []uint64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s, length %d: clmul %x, table %x", what, n, got, want)
			}
		}
	}
	for n := 0; n <= 300; n++ {
		data := make([]byte, n)
		rng.Read(data)
		s := randState()
		got, want := append([]uint64(nil), s...), append([]uint64(nil), s...)
		clmul.feed(got, data)
		table.feed(want, data)
		check("random state", n, got, want)

		zeros := rng.Intn(n + 1)
		clear(data[n-zeros:]) // the high-order bytes are the leading ones
		clmul.remainder(got, data)
		table.remainder(want, data)
		check("zero state, leading zeros", n, got, want)

		s = randState()
		copy(got, s)
		copy(want, s)
		clmul.zeroFeed(got, n)
		table.zeroFeed(want, n)
		check("zeroFeed", n, got, want)
	}
}
