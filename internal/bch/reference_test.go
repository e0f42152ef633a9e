package bch

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"chipkillpm/internal/gf"
)

// The references for the table kernels. Each is the textbook definition
// over gf.Poly2 arithmetic, sharing no code with the kernel it checks:
// parity(x) = data(x)*x^r mod g(x) by polynomial division, syndromes as
// sums of alpha^(degree*e) over the set bits. They are oracles only;
// production code has one implementation of each kernel.

// poly2FromBytes reads data as a GF(2) polynomial: bit b of data[i] is the
// coefficient of x^(8i+b).
func poly2FromBytes(data []byte) gf.Poly2 {
	p := make(gf.Poly2, (len(data)+7)/8)
	for i, b := range data {
		p[i/8] |= uint64(b) << (8 * uint(i%8))
	}
	return p
}

// poly2Bytes writes the n low bytes of p in poly2FromBytes's order.
func poly2Bytes(p gf.Poly2, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if i/8 < len(p) {
			out[i] = byte(p[i/8] >> (8 * uint(i%8)))
		}
	}
	return out
}

// shlMod returns p(x)*x^k mod g(x).
func shlMod(p gf.Poly2, k int, g gf.Poly2) gf.Poly2 {
	_, rem := p.Mul(gf.NewPoly2(k)).DivMod(g)
	return rem
}

// encodeBitSerial is the reference for Encode: data(x)*x^r mod g(x).
func (c *Code) encodeBitSerial(data []byte) []byte {
	if len(data) != c.DataBytes() {
		panic(fmt.Sprintf("bch: encodeBitSerial: got %d data bytes, want %d", len(data), c.DataBytes()))
	}
	return poly2Bytes(shlMod(poly2FromBytes(data), c.r, c.gen), c.ParityBytes())
}

// encodeDeltaBitSerial is the reference for EncodeDeltaInto, at any bit
// offset: delta(x)*x^(r+bitOffset) mod g(x).
func (c *Code) encodeDeltaBitSerial(delta []byte, bitOffset int) []byte {
	if bitOffset < 0 || bitOffset+8*len(delta) > c.k {
		panic(fmt.Sprintf("bch: encodeDeltaBitSerial: %d bytes at bit offset %d overflow k=%d", len(delta), bitOffset, c.k))
	}
	return poly2Bytes(shlMod(poly2FromBytes(delta), c.r+bitOffset, c.gen), c.ParityBytes())
}

// syndromesBitSerial is the reference for the syndromes: S_e sums
// alpha^(degree*e) over every set bit of the received word, parity bit p
// at degree p (p < r; the slack bits above are ignored) and data bit i at
// degree r+i.
func (c *Code) syndromesBitSerial(data, parity []byte) ([]gf.Elem, bool) {
	syn := make([]gf.Elem, 2*c.t)
	addBit := func(deg int) {
		for j := range syn {
			syn[j] ^= c.field.Exp(deg * (j + 1))
		}
	}
	for deg := 0; deg < c.r; deg++ {
		if parity[deg/8]>>(deg%8)&1 != 0 {
			addBit(deg)
		}
	}
	for i := 0; i < 8*len(data); i++ {
		if data[i/8]>>(i%8)&1 != 0 {
			addBit(c.r + i)
		}
	}
	return syn, !slices.ContainsFunc(syn, func(s gf.Elem) bool { return s != 0 })
}

// chien is the reference root search: it evaluates sigma at alpha^-p for
// every position p of the shortened code and returns the roots' positions,
// reporting false unless there are exactly deg(sigma) of them.
func (c *Code) chien(sigma gf.Poly) ([]int, bool) {
	f := c.field
	deg := gf.PolyDeg(sigma)
	if deg <= 0 {
		return nil, deg == 0
	}
	positions := make([]int, 0, deg)
	for p := 0; p < c.n; p++ {
		if f.PolyEval(sigma, f.Exp(-p)) == 0 {
			positions = append(positions, p)
			if len(positions) == deg {
				break
			}
		}
	}
	return positions, len(positions) == deg
}

// syndromes runs the production syndrome path, syndromesInto, with its own
// scratch and result slice.
func (c *Code) syndromes(data, parity []byte) ([]gf.Elem, bool) {
	syn := make([]gf.Elem, 2*c.t)
	sc := c.getScratch()
	clean := c.syndromesInto(syn, data, parity, sc)
	c.putScratch(sc)
	return syn, clean
}

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
	syn, clean := c.syndromesBitSerial(data, parity)
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
	if _, clean := c.syndromesBitSerial(data, parity); !clean {
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
	{8, 200, 4},    // the same for the four-error tier, which alone accepts these
}

func TestDecodeMatchesReference(t *testing.T) {
	for _, p := range referenceCodes {
		code := Must(p.m, p.k, p.t)
		rng := rand.New(rand.NewSource(int64(p.k)*31 + int64(p.t)))
		data := make([]byte, code.DataBytes())
		trials := 6
		if code.t <= 4 {
			trials = 600 // cheap, and the only shapes where miscorrection is observable
		}
		miscorrected := 0
		for e := 0; e <= code.t+4; e++ {
			n := trials
			if p.m == 12 && (e == 3 || e == 4 || e == 5 || e == 6 || e == 8 || e == 9) {
				// The paper shape at the tier boundaries: the four-error
				// tier's last weights, the first it must hand on, and
				// the affine-multiple solver's range.
				n = 60
			}
			for trial := 0; trial < n; trial++ {
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
		if code.t <= 4 && miscorrected == 0 {
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
			syn, _ := code.syndromes(data, parity)
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

// TestFewErrorTierCorrects pins the four-error tier on its own inputs:
// every pattern of one to four flips over a seeded sample of positions
// (parity bits, and one data bit of each bit index 0..7 so both nibble
// rows of the delta table are read) must come back from decodeFew as
// (weight, true) with the codeword restored. Decode would hide a wrong
// tier behind the full t-error path.
func TestFewErrorTierCorrects(t *testing.T) {
	for _, p := range []struct {
		m    uint
		k, t int
	}{{12, 2048, 22}, {10, 512, 14}} {
		code := Must(p.m, p.k, p.t)
		rng := rand.New(rand.NewSource(int64(p.m) * 11))
		d := code.decTables()
		sc := code.getScratch()
		cleanData := make([]byte, code.DataBytes())
		randomData(rng, cleanData, code.k)
		cleanParity := code.Encode(cleanData)

		sample := append([]int(nil), rng.Perm(code.r)[:6]...)
		for bit := 0; bit < 8; bit++ {
			sample = append(sample, code.r+8*rng.Intn(code.DataBytes())+bit)
		}
		data := make([]byte, len(cleanData))
		parity := make([]byte, len(cleanParity))
		patterns := 0
		for mask := 1; mask < 1<<len(sample); mask++ {
			w := bits.OnesCount(uint(mask))
			if w > fewErrors {
				continue
			}
			var errs []int
			for i, pos := range sample {
				if mask>>i&1 != 0 {
					errs = append(errs, pos)
				}
			}
			copy(data, cleanData)
			copy(parity, cleanParity)
			code.flip(data, parity, errs)
			if code.remainderInto(d, data, parity, sc) {
				t.Fatalf("%v: flips %v left a codeword", code, errs)
			}
			fixed, ok := code.decodeFew(d, data, parity, sc)
			if fixed != w || !ok {
				t.Fatalf("%v: flips %v: decodeFew = (%d, %v), want (%d, true)", code, errs, fixed, ok, w)
			}
			if !bytes.Equal(data, cleanData) || !bytes.Equal(parity, cleanParity) {
				t.Fatalf("%v: flips %v: tier accepted a wrong word", code, errs)
			}
			patterns++
		}
		code.putScratch(sc)
		if patterns != 1470 {
			t.Fatalf("%v: %d patterns, want 1470", code, patterns)
		}
	}
}

// TestFewErrorTierRejects builds words with e >= 5 errors whose
// eight-syndrome locator has degree <= 4 and splits inside the code, so
// that only the four-error tier's codeword check stands between them and
// a wrong answer: the tier must reject each one, touching nothing, and
// Decode must still agree with the reference. Two constructions: the
// error pattern is a codeword C of the t=4 code (S_1..S_8 vanish) with up
// to four of its bits left out, or a random weight-5..9 pattern kept when
// its locator happens to split.
func TestFewErrorTierRejects(t *testing.T) {
	code := Must(12, 2048, 22)
	g4 := Must(12, 2048, 4).Generator()
	rng := rand.New(rand.NewSource(4))
	d := code.decTables()
	sc := code.getScratch()
	data := make([]byte, code.DataBytes())

	// check runs one error pattern through the tier and through Decode
	// and reports whether its tier locator split in range.
	check := func(name string, errs []int) bool {
		t.Helper()
		randomData(rng, data, code.k)
		parity := code.Encode(data)
		code.flip(data, parity, errs)
		syn, clean := code.syndromes(data, parity)
		if clean {
			t.Fatalf("%s: %d errors made a codeword", name, len(errs))
		}
		sigma := berlekampMasseyReference(code.field, syn[:2*fewErrors])
		deg := gf.PolyDeg(sigma)
		if deg < 1 || deg > fewErrors {
			return false
		}
		if _, ok := code.directRoots(d, sigma, nil); !ok {
			return false
		}
		inData := append([]byte(nil), data...)
		inParity := append([]byte(nil), parity...)
		if code.remainderInto(d, data, parity, sc) {
			t.Fatalf("%s: remainder of a non-codeword is zero", name)
		}
		if fixed, ok := code.decodeFew(d, data, parity, sc); ok {
			t.Fatalf("%s: tier accepted %d flips for %d errors", name, fixed, len(errs))
		}
		if !bytes.Equal(data, inData) || !bytes.Equal(parity, inParity) {
			t.Fatalf("%s: rejecting tier modified the word", name)
		}
		wantData := append([]byte(nil), data...)
		wantParity := append([]byte(nil), parity...)
		wantFixed, wantErr := decodeReference(code, wantData, wantParity)
		gotFixed, gotErr := code.Decode(data, parity)
		if gotFixed != wantFixed || !errors.Is(gotErr, wantErr) ||
			!bytes.Equal(data, wantData) || !bytes.Equal(parity, wantParity) {
			t.Fatalf("%s, %d errors: Decode = (%d, %v), reference = (%d, %v)",
				name, len(errs), gotFixed, gotErr, wantFixed, wantErr)
		}
		return true
	}

	// C = g4(x) * (x^a + x^b): S_1..S_8 of C vanish, so leaving out up to
	// four of its bits F gives an error pattern with the syndromes of F.
	weights := map[int]bool{}
	for trial := 0; trial < 40; trial++ {
		span := code.n - g4.Degree()
		c := g4.Mul(gf.NewPoly2(rng.Intn(span)))
		if trial%2 == 1 {
			c = c.Add(g4.Mul(gf.NewPoly2(rng.Intn(span))))
		}
		var support []int
		for p := 0; p <= c.Degree(); p++ {
			if c.Coeff(p) != 0 {
				support = append(support, p)
			}
		}
		rng.Shuffle(len(support), func(i, j int) { support[i], support[j] = support[j], support[i] })
		errs := support[1+rng.Intn(fewErrors):]
		if len(errs) < fewErrors+1 {
			continue
		}
		if !check("t=4 codeword minus its locator's roots", errs) {
			t.Fatalf("construction did not leave a splitting locator of degree <= 4")
		}
		weights[len(errs)] = true
	}
	if len(weights) < 5 {
		t.Fatalf("only %d distinct error counts from the t=4 codewords", len(weights))
	}

	// Random light patterns whose locator happens to split: the tier's
	// most likely false positives at the boot scrub's error rates.
	found := 0
	for trial := 0; trial < 40000 && found < 12; trial++ {
		errs := rng.Perm(code.n)[:fewErrors+1+trial%5]
		if check("random splitting pattern", errs) {
			found++
		}
	}
	if found < 12 {
		t.Fatalf("only %d random patterns with a splitting eight-syndrome locator", found)
	}
}

func TestMidDegreeRootsMatchChien(t *testing.T) {
	for _, p := range []struct {
		m    uint
		k, t int
	}{{10, 512, 14}, {12, 2048, 22}, {13, 4096, 9}} {
		code := Must(p.m, p.k, p.t)
		f := code.field
		rng := rand.New(rand.NewSource(int64(p.m) * 5))
		inRange := func() gf.Elem { return f.Exp(-rng.Intn(code.n)) }
		nonzero := func() gf.Elem { return gf.Elem(1 + rng.Intn(f.N())) }
		fromRoots := func(roots ...gf.Elem) gf.Poly {
			sigma := gf.Poly{nonzero()}
			for _, r := range roots {
				sigma = f.PolyMul(sigma, gf.Poly{r, 1})
			}
			return sigma
		}
		distinctInRange := func(d int) []gf.Elem {
			roots := make([]gf.Elem, 0, d)
			for len(roots) < d {
				if r := inRange(); !slices.Contains(roots, r) {
					roots = append(roots, r)
				}
			}
			return roots
		}
		// An irreducible quadratic x^2 + x + b: b is not of the form
		// y^2 + y, so the quadratic table has no entry for it.
		irreducible := func() gf.Poly {
			d := code.decTables()
			for {
				if b := nonzero(); d.quad[b] == quadNone {
					return gf.Poly{b, 1, 1}
				}
			}
		}

		// check compares the affine-multiple solver with the exhaustive
		// search on one locator and reports whether it split.
		check := func(name string, sigma gf.Poly) bool {
			t.Helper()
			want, wantOK := code.chien(sigma)
			got, gotOK := code.affineMultipleRoots(sigma, nil)
			if gotOK != wantOK {
				t.Fatalf("%v %s: affineMultipleRoots ok=%v, chien ok=%v for %v", code, name, gotOK, wantOK, sigma)
			}
			if !gotOK {
				if len(got) != 0 {
					t.Fatalf("%v %s: failed solve left positions %v", code, name, got)
				}
				return false
			}
			sort.Ints(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%v %s: roots %v, chien %v", code, name, got, want)
			}
			return true
		}

		for d := 5; d <= maxDirect; d++ {
			for trial := 0; trial < 100; trial++ {
				if !check("distinct in-range roots", fromRoots(distinctInRange(d)...)) {
					t.Fatalf("%v: degree %d with %d distinct in-range roots did not split", code, d, d)
				}
			}
			for trial := 0; trial < 50; trial++ {
				roots := distinctInRange(d - 1)
				out := f.Exp(-(code.n + rng.Intn(f.N()-code.n)))
				if check("out-of-range root", fromRoots(append(roots, out)...)) {
					t.Fatalf("%v: accepted a root outside the code", code)
				}
				roots[0] = roots[1]
				if check("repeated root", fromRoots(roots...)) {
					t.Fatalf("%v: accepted a repeated root", code)
				}
				sigma := f.PolyMul(fromRoots(distinctInRange(d-2)...), irreducible())
				if check("irreducible quadratic factor", sigma) {
					t.Fatalf("%v: accepted a locator with an irreducible factor", code)
				}
			}
			for trial := 0; trial < 100; trial++ {
				sigma := make(gf.Poly, d+1)
				for j := range sigma {
					sigma[j] = gf.Elem(rng.Intn(f.Size()))
				}
				sigma[0], sigma[d] = nonzero(), nonzero()
				check("random locator", sigma)
			}
		}
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
			if ref := code.encodeDeltaBitSerial(data, 0); !bytes.Equal(gotBytes, ref) {
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
					gf.XORBytes(parity, upd)
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
