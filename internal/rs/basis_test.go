package rs

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"chipkillpm/internal/gf"
)

// TestKernelsOnBasis proves the table-driven kernels against polynomial
// division on every input, for each diffCodes shape, in two steps.
//
// Tables: every LFSR feed row, slicing-by-8 row, unit-error row and
// per-root multiplication table equals its definition, and the generator
// is the product of (x + alpha^j), j = 1..r. Encode, EncodeInto, Check and
// SyndromeWord are built from these tables by XOR alone: as functions of
// (data, check) they are GF(2)-linear, and their only branches on content
// (the leading-zero skip, the all-zero-chunk short circuit) skip steps
// that map a zero register to zero.
//
// Basis: a linear map equals the reference everywhere if it does on a
// basis, so each kernel is checked on every data-bit unit vector (512 for
// RS(72, 64)) and every check-bit unit vector (64).
func TestKernelsOnBasis(t *testing.T) {
	for _, p := range diffCodes {
		c := Must(p.k, p.r)
		f, e := c.f, c.enc
		t.Run(c.String(), func(t *testing.T) {
			gen := gf.Poly{1}
			for j := 1; j <= c.r; j++ {
				gen = f.PolyMul(gen, gf.Poly{f.Exp(j), 1})
			}
			if !slices.Equal(c.gen, gen) {
				t.Fatalf("generator %v, want %v", c.gen, gen)
			}
			// monomial(v, d) is the remainder of v*x^d mod g, packed.
			monomial := func(v byte, d int) uint64 {
				m := make(gf.Poly, d+1)
				m[d] = gf.Elem(v)
				return binary.LittleEndian.Uint64(polyBytes(polyMod(f, m, gen), 8))
			}
			for v := 0; v < 256; v++ {
				if want := monomial(byte(v), c.r); e.fb[v] != want {
					t.Fatalf("fb[%#x] = %#x, want %#x", v, e.fb[v], want)
				}
				for j := 0; j < c.r; j++ {
					if got, want := c.dec.root[j][v], f.Mul(gf.Elem(v), f.Exp(j+1)); got != want {
						t.Fatalf("root[%d][%#x] = %#x, want %#x", j, v, got, want)
					}
					if got, want := c.dec.step[j][v], f.Mul(gf.Elem(v), f.Exp(-(j+1))); got != want {
						t.Fatalf("step[%d][%#x] = %#x, want %#x", j, v, got, want)
					}
				}
			}
			if e.sliced {
				for k := range e.slice {
					for v := 0; v < 256; v++ {
						if want := monomial(byte(v), k+8); e.slice[k][v] != want {
							t.Fatalf("slice[%d][%#x] = %#x, want %#x", k, v, e.slice[k][v], want)
						}
					}
				}
				for d, u := range e.unit {
					if want := monomial(1, d); u != want {
						t.Fatalf("unit[%d] = %#x, want %#x", d, u, want)
					}
				}
			}

			data, check := make([]byte, c.k), make([]byte, c.r)
			for bit := 0; bit < 8*(c.k+c.r); bit++ {
				clear(data)
				clear(check)
				if bit < 8*c.k {
					data[bit/8] = 1 << (bit % 8)
				} else {
					check[bit/8-c.k] = 1 << (bit % 8)
				}
				word := make(gf.Poly, c.n)
				for i, b := range check {
					word[i] = gf.Elem(b)
				}
				for i, b := range data {
					word[c.r+i] = gf.Elem(b)
				}
				rem := polyBytes(polyMod(f, word, gen), c.r)
				if c.Check(data, check) {
					t.Fatalf("bit %d: Check accepts a weight-1 word", bit)
				}
				wantSyn, _ := c.syndromesHorner(data, check)
				syn := make([]gf.Elem, c.r)
				if c.syndromesInto(syn, data, check) || !slices.Equal(gf.Poly(syn), wantSyn) {
					t.Fatalf("bit %d: syndromes %v, Horner %v", bit, syn, wantSyn)
				}
				if c.r == 8 {
					if got, want := c.SyndromeWord(data, binary.LittleEndian.Uint64(check)), binary.LittleEndian.Uint64(rem); got != want {
						t.Fatalf("bit %d: SyndromeWord %#x, polynomial division %#x", bit, got, want)
					}
				}
				if bit >= 8*c.k {
					continue
				}
				// A data-bit vector: its check bytes are the remainder.
				if got := c.Encode(data); !bytes.Equal(got, rem) {
					t.Fatalf("data bit %d: Encode %x, polynomial division %x", bit, got, rem)
				}
				c.EncodeInto(check, data)
				if !bytes.Equal(check, rem) {
					t.Fatalf("data bit %d: EncodeInto %x, polynomial division %x", bit, check, rem)
				}
				if !c.Check(data, rem) {
					t.Fatalf("data bit %d: Check rejects its codeword", bit)
				}
				if c.r == 8 && c.SyndromeWord(data, binary.LittleEndian.Uint64(rem)) != 0 {
					t.Fatalf("data bit %d: SyndromeWord of its codeword is nonzero", bit)
				}
			}
		})
	}
}

// polyBytes returns the n low coefficients of p as bytes.
func polyBytes(p gf.Poly, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if i < len(p) {
			out[i] = byte(p[i])
		}
	}
	return out
}
