package bch

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"chipkillpm/internal/gf"
)

// An oracle for the decoder as a whole. decodeReference is Decode spelled
// the textbook way — per-set-bit syndromes, the full 2t-step
// Berlekamp-Massey, an exhaustive Chien search, a from-scratch syndrome
// recomputation as the final guard — and shares only the field arithmetic
// with the production path. Decode must agree with it on the correction
// count, the error and every byte, including where both miscorrect.

// berlekampMasseyReference is the unsimplified algorithm: one discrepancy
// per syndrome, fresh polynomials.
func berlekampMasseyReference(f *gf.Field, syn []gf.Elem) gf.Poly {
	sigma := gf.Poly{1}
	prev := gf.Poly{1}
	l, shift := 0, 1
	b := gf.Elem(1)
	for i := range syn {
		d := syn[i]
		for j := 1; j <= l && j < len(sigma); j++ {
			d ^= f.Mul(sigma[j], syn[i-j])
		}
		if d == 0 {
			shift++
			continue
		}
		next := make(gf.Poly, max(len(sigma), len(prev)+shift))
		copy(next, sigma)
		scale := f.Div(d, b)
		for j, p := range prev {
			next[j+shift] ^= f.Mul(scale, p)
		}
		if 2*l <= i {
			prev, b, l, shift = sigma, d, i+1-l, 1
		} else {
			shift++
		}
		sigma = next
	}
	return sigma[:gf.PolyDeg(sigma)+1]
}

func decodeReference(c *Code, data, parity []byte) (int, error) {
	syn, clean := c.SyndromesBitSerial(data, parity)
	if clean {
		return 0, nil
	}
	sigma := berlekampMasseyReference(c.field, syn)
	if gf.PolyDeg(sigma) > c.t {
		return 0, ErrUncorrectable
	}
	positions, ok := c.chien(sigma)
	if !ok {
		return 0, ErrUncorrectable
	}
	c.flip(data, parity, positions)
	if _, clean := c.SyndromesBitSerial(data, parity); !clean {
		c.flip(data, parity, positions)
		return 0, ErrUncorrectable
	}
	return len(positions), nil
}

var referenceCodes = []struct {
	m    uint
	k, t int
}{
	{12, 2048, 22}, // the paper's VLEW code: sliced remainder, 6-word syndrome rows
	{13, 4096, 41}, // Flash-style: 11-word rows with one spare lane
	{10, 512, 14},  // per-block baseline
	{13, 4096, 9},  // r = 117, not byte-aligned: generic remainder, masked top byte
	{8, 128, 12},   // small field: the scan block is cut to 22 positions to stay inside the exp table
	{8, 64, 2},     // weak enough that words beyond t often miscorrect
}

func TestDecodeMatchesReference(t *testing.T) {
	for _, p := range referenceCodes {
		code := Must(p.m, p.k, p.t)
		rng := rand.New(rand.NewSource(int64(p.k)*31 + int64(p.t)))
		data := make([]byte, code.DataBytes())
		trials := 6
		if code.n < 128 {
			trials = 200 // cheap, and the only shape where miscorrection is observable
		}
		miscorrected := 0
		for e := 0; e <= code.t+4; e++ {
			for trial := 0; trial < trials; trial++ {
				randomData(rng, data, code.k)
				parity := code.Encode(data)
				code.flip(data, parity, rng.Perm(code.n)[:e])

				wantData := append([]byte(nil), data...)
				wantParity := append([]byte(nil), parity...)
				wantFixed, wantErr := decodeReference(code, wantData, wantParity)
				gotFixed, gotErr := code.Decode(data, parity)

				if gotFixed != wantFixed || !errors.Is(gotErr, wantErr) {
					t.Fatalf("%v e=%d trial %d: Decode = (%d, %v), reference = (%d, %v)",
						code, e, trial, gotFixed, gotErr, wantFixed, wantErr)
				}
				if !bytes.Equal(data, wantData) || !bytes.Equal(parity, wantParity) {
					t.Fatalf("%v e=%d trial %d: Decode and reference left different bytes", code, e, trial)
				}
				if e <= code.t && (gotErr != nil || gotFixed != e) {
					t.Fatalf("%v e=%d trial %d: Decode = (%d, %v)", code, e, trial, gotFixed, gotErr)
				}
				if e > code.t && gotErr == nil {
					miscorrected++
				}
			}
		}
		if code.t == 2 && miscorrected == 0 {
			t.Errorf("%v: no word beyond t miscorrected; that agreement went untested", code)
		}
	}
}

// TestLocatorMatchesReference feeds the binary Berlekamp-Massey syndromes
// of heavily overloaded words, where the locator is arbitrary, and
// requires the same polynomial as the 2t-step algorithm: the skipped
// discrepancies must vanish whatever the error count.
func TestLocatorMatchesReference(t *testing.T) {
	for _, p := range referenceCodes {
		code := Must(p.m, p.k, p.t)
		rng := rand.New(rand.NewSource(int64(p.k)*37 + int64(p.t)))
		data := make([]byte, code.DataBytes())
		parity := make([]byte, code.ParityBytes())
		sc := code.getScratch()
		for trial := 0; trial < 200; trial++ {
			for i := range data {
				data[i] = 0
			}
			for i := range parity {
				parity[i] = 0
			}
			code.flip(data, parity, rng.Perm(code.n)[:1+rng.Intn(3*code.t)])
			syn, _ := code.Syndromes(data, parity)
			want := berlekampMasseyReference(code.field, syn)
			got := code.berlekampMassey(syn, sc)
			if !slices.Equal(got, want) {
				t.Fatalf("%v trial %d: locator mismatch\ngot  %v\nwant %v", code, trial, got, want)
			}
		}
	}
}

// quarticFromRoots expands scale * prod (x + root_i).
func quarticFromRoots(f *gf.Field, scale gf.Elem, roots [4]gf.Elem) gf.Poly {
	p := gf.Poly{scale}
	for _, r := range roots {
		p = f.PolyMul(p, gf.Poly{r, 1})
	}
	return p
}

func TestQuarticRootsMatchChien(t *testing.T) {
	for _, p := range []struct {
		m    uint
		k, t int
	}{{10, 512, 14}, {12, 2048, 22}, {13, 4096, 9}} {
		code := Must(p.m, p.k, p.t)
		f := code.field
		rng := rand.New(rand.NewSource(int64(p.m)))
		inRange := func() gf.Elem { return f.Exp(-rng.Intn(code.n)) }
		nonzero := func() gf.Elem { return gf.Elem(1 + rng.Intn(f.N())) }

		// check compares the closed form with the exhaustive search on one
		// quartic and reports whether it split into four in-range roots.
		check := func(name string, sigma gf.Poly) bool {
			t.Helper()
			if len(sigma) != 5 || sigma[4] == 0 {
				t.Fatalf("%v %s: not a quartic: %v", code, name, sigma)
			}
			want, wantOK := code.chien(sigma)
			got, gotOK := code.quarticRoots(sigma[0], sigma[1], sigma[2], sigma[3], sigma[4], nil)
			if gotOK != wantOK {
				t.Fatalf("%v %s: quarticRoots ok=%v, chien ok=%v for %v", code, name, gotOK, wantOK, sigma)
			}
			if !gotOK {
				if len(got) != 0 {
					t.Fatalf("%v %s: failed closed form left positions %v", code, name, got)
				}
				return false
			}
			sort.Ints(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%v %s: roots %v, chien %v", code, name, got, want)
			}
			return true
		}
		distinct := func(r [4]gf.Elem) bool {
			for i := range r {
				if r[i] == 0 {
					return false
				}
				for j := 0; j < i; j++ {
					if r[i] == r[j] {
						return false
					}
				}
			}
			return true
		}

		split := 0
		for trial := 0; trial < 300; trial++ {
			r := [4]gf.Elem{inRange(), inRange(), inRange(), inRange()}
			if distinct(r) && check("four in-range roots", quarticFromRoots(f, nonzero(), r)) {
				split++
			}
		}
		if split < 250 {
			t.Fatalf("%v: only %d/300 split quartics solved in closed form", code, split)
		}

		// a = 0 (the roots sum to zero: already affine) and c = 0 (their
		// inverses do: no shift needed). The fourth root is forced, so
		// draw until it lands inside the code.
		for _, branch := range []string{"a=0", "c=0"} {
			solved := 0
			for trial := 0; trial < 2000 && solved < 40; trial++ {
				r := [4]gf.Elem{inRange(), inRange(), inRange()}
				r[3] = r[0] ^ r[1] ^ r[2]
				if inv := f.Inv(r[0]) ^ f.Inv(r[1]) ^ f.Inv(r[2]); branch == "c=0" && inv != 0 {
					r[3] = f.Inv(inv)
				}
				if !distinct(r) {
					continue
				}
				sigma := quarticFromRoots(f, nonzero(), r)
				if branch == "a=0" && sigma[3] != 0 || branch == "c=0" && sigma[1] != 0 {
					t.Fatalf("%v %s: construction left the coefficient set: %v", code, branch, sigma)
				}
				if check(branch, sigma) {
					solved++
				}
			}
			if solved < 40 {
				t.Fatalf("%v %s: only %d in-range cases found", code, branch, solved)
			}
		}

		// Rejections: a root outside the shortened code, a repeated root,
		// and arbitrary quartics, which rarely split.
		for trial := 0; trial < 100; trial++ {
			out := f.Exp(-(code.n + rng.Intn(f.N()-code.n)))
			if check("out-of-range root", quarticFromRoots(f, nonzero(), [4]gf.Elem{inRange(), inRange(), inRange(), out})) {
				t.Fatalf("%v: accepted a root outside the code", code)
			}
			r := inRange()
			if check("repeated root", quarticFromRoots(f, nonzero(), [4]gf.Elem{r, r, inRange(), inRange()})) {
				t.Fatalf("%v: accepted a repeated root", code)
			}
		}
		for trial := 0; trial < 2000; trial++ {
			sigma := gf.Poly{nonzero(), gf.Elem(rng.Intn(f.Size())), gf.Elem(rng.Intn(f.Size())), gf.Elem(rng.Intn(f.Size())), nonzero()}
			if trial%4 == 0 {
				sigma[3] = 0
			}
			if trial%5 == 0 {
				sigma[1] = 0
			}
			check("random quartic", sigma)
		}
		check("zero constant term", gf.Poly{0, 1, 1, 1, 1})
	}
}

func TestRemainderSlicedMatchesByteSerial(t *testing.T) {
	code := Must(12, 2048, 22)
	e := code.enc
	if e.slice8 == nil {
		t.Fatal("the paper's code did not take the slicing-by-8 layout")
	}
	rng := rand.New(rand.NewSource(264))
	got := make([]uint64, e.w)
	want := make([]uint64, e.w)
	gotBytes := make([]byte, code.ParityBytes())
	for n := 0; n <= code.DataBytes(); n++ {
		for _, zeros := range []int{0, 1, 7, 8, 9, 17, n} {
			if zeros > n {
				continue
			}
			data := make([]byte, n)
			rng.Read(data[:n-zeros]) // the high-order bytes are the leading ones
			e.remainder(got, data)

			for i := range want {
				want[i] = 0
			}
			for i := n - 1; i >= 0; i-- {
				e.step(want, data[i])
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("len %d, %d leading zeros: sliced %x, byte-serial %x", n, zeros, got, want)
				}
			}
			stateBytes(got, gotBytes)
			if ref := code.EncodeDeltaBitSerial(data, 0); !bytes.Equal(gotBytes, ref) {
				t.Fatalf("len %d, %d leading zeros: sliced %x, polynomial division %x", n, zeros, gotBytes, ref)
			}
		}
	}
}

// TestDecodeConcurrent shares fresh Codes between goroutines that all
// start decoding at once, so the first-use table builds (the decode
// tables' sync.Once, the delta table's compare-and-swap publication) and
// the scratch pool are raced deliberately; run under -race by `make race`.
func TestDecodeConcurrent(t *testing.T) {
	const workers = 8
	for round := 0; round < 3; round++ {
		code := Must(12, 2048, 22)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*round + w)))
				data := make([]byte, code.DataBytes())
				delta := make([]byte, 8)
				upd := make([]byte, code.ParityBytes())
				<-start
				for trial := 0; trial < 40; trial++ {
					rng.Read(data)
					parity := code.Encode(data)
					want := append([]byte(nil), data...)

					// A sparse write through the delta table keeps the
					// parity in step with the data.
					rng.Read(delta)
					off := 8 * rng.Intn(code.DataBytes()/8)
					code.EncodeDeltaInto(upd, delta, 8*off)
					for i, v := range delta {
						data[off+i] ^= v
						want[off+i] ^= v
					}
					code.XORParity(parity, upd)
					if !code.CheckClean(data, parity) {
						t.Errorf("worker %d trial %d: delta update left a non-codeword", w, trial)
						return
					}

					e := trial % (code.t + 1)
					code.flip(data, parity, rng.Perm(code.n)[:e])
					fixed, err := code.Decode(data, parity)
					if err != nil || fixed != e || !bytes.Equal(data, want) {
						t.Errorf("worker %d trial %d: %d flips decoded as (%d, %v)", w, trial, e, fixed, err)
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
	}
}
