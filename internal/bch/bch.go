// Package bch implements binary BCH codes: systematic encoding, and
// decoding via Berlekamp-Massey plus Chien search.
//
// BCH codes are the workhorse of this repository's very long ECC words
// (VLEWs): the paper protects each 256 B of per-chip data with a
// 22-bit-error-correcting BCH code over GF(2^12) (33 B of code bits), and
// the Flash-style and per-block baselines use the same machinery at other
// (m, k, t) points. Codes are shortened: any data length k with
// k + parity <= 2^m - 1 is accepted.
//
// Because BCH is linear, code-bit updates can be computed from the XOR of
// old and new data alone: f(x) XOR f(x') = f(x XOR x'). EncodeDeltaInto
// exposes exactly that operation; it is what the paper's in-NVRAM-chip
// encoder and ECC Update Registerfile (EUR) evaluate on each write.
package bch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"chipkillpm/internal/gf"
)

// ErrUncorrectable reports that the received word contains more errors than
// the code can correct (or an error pattern outside the shortened code).
var ErrUncorrectable = errors.New("bch: uncorrectable error pattern")

// Code is a binary (n, k) BCH code with designed error-correction
// capability t, built over GF(2^m). Its parameters are immutable and all
// methods are safe for concurrent use: the lookup tables behind the fast
// encode/decode paths are built once (eagerly for encoding, lazily for
// decoding) and per-call working memory comes from an internal pool.
type Code struct {
	field *gf.Field
	exp   []gf.Elem // field.ExpTable(): alpha^i for i in [0, 2*(2^m-1))
	m     uint
	t     int
	k     int // data bits
	r     int // parity bits = deg(generator)
	n     int // codeword bits = k + r (shortened from 2^m-1)
	gen   gf.Poly2

	enc       *encTables // byte-wise LFSR tables
	decOnce   sync.Once
	dec       *decTables // syndrome and closed-form root tables, built on demand
	deltaTabs atomic.Pointer[deltaTables]
	scratch   sync.Pool // *decodeScratch
}

// New constructs a binary BCH code over GF(2^m) that protects k data bits
// and corrects up to t bit errors. It returns an error when the shortened
// length k + deg(g) exceeds 2^m - 1, the parameters are degenerate, or
// deg(g) falls outside [8, maxParityBits], the parity widths the table
// paths serve: the byte-wise LFSR needs at least one whole byte of state,
// and EncodeDeltaInto accumulates at most maxParityBits on the stack.
func New(m uint, k, t int) (*Code, error) {
	if t < 1 {
		return nil, fmt.Errorf("bch: t=%d must be >= 1", t)
	}
	if k < 1 {
		return nil, fmt.Errorf("bch: k=%d must be >= 1", k)
	}
	field, err := gf.NewField(m)
	if err != nil {
		return nil, err
	}
	gen, err := generator(field, t)
	if err != nil {
		return nil, err
	}
	r := gen.Degree()
	if k+r > field.N() {
		return nil, fmt.Errorf("bch: k+r = %d+%d exceeds 2^%d-1 = %d; use a larger m",
			k, r, m, field.N())
	}
	if r < 8 || r > maxParityBits {
		return nil, fmt.Errorf("bch: %d parity bits outside the table paths' range [8, %d]", r, maxParityBits)
	}
	c := &Code{field: field, exp: field.ExpTable(), m: m, t: t, k: k, r: r, n: k + r, gen: gen}
	c.enc = c.buildEncTables(hasCLMUL)
	return c, nil
}

// Must is New but panics on error; for initialising known-good codes.
func Must(m uint, k, t int) *Code {
	c, err := New(m, k, t)
	if err != nil {
		panic(err)
	}
	return c
}

// generator computes g(x) = lcm of the minimal polynomials of
// alpha^1 .. alpha^2t over GF(2).
func generator(f *gf.Field, t int) (gf.Poly2, error) {
	n := f.N()
	covered := make([]bool, n+1)
	g := gf.NewPoly2(0) // 1
	for i := 1; i <= 2*t; i++ {
		if covered[i] {
			continue
		}
		// Conjugacy class of alpha^i: exponents i, 2i, 4i, ... mod n.
		minPoly := gf.Poly{1} // over GF(2^m); will have GF(2) coefficients
		e := i
		for {
			covered[e] = true
			minPoly = f.PolyMul(minPoly, gf.Poly{f.Exp(e), 1}) // (x + alpha^e)
			e = (e * 2) % n
			if e == i {
				break
			}
		}
		// A minimal polynomial over GF(2) must have 0/1 coefficients.
		mp := gf.Poly2(nil)
		for deg, c := range minPoly {
			switch c {
			case 0:
			case 1:
				mp = mp.SetCoeff(deg, 1)
			default:
				return nil, fmt.Errorf("bch: internal: minimal polynomial of alpha^%d has coefficient %d outside GF(2)", i, c)
			}
		}
		g = g.Mul(mp)
	}
	return g, nil
}

// K returns the number of data bits.
func (c *Code) K() int { return c.k }

// N returns the codeword length in bits (data + parity).
func (c *Code) N() int { return c.n }

// T returns the designed error-correction capability in bits.
func (c *Code) T() int { return c.t }

// ParityBits returns the number of code (parity) bits, deg(g).
func (c *Code) ParityBits() int { return c.r }

// ParityBytes returns the parity size rounded up to whole bytes, which is
// how the memory layouts in this repository store code bits.
func (c *Code) ParityBytes() int { return (c.r + 7) / 8 }

// DataBytes returns k/8 rounded up.
func (c *Code) DataBytes() int { return (c.k + 7) / 8 }

// Generator returns a copy of the generator polynomial.
func (c *Code) Generator() gf.Poly2 { return c.gen.Clone() }

// Encode computes the parity bytes for data. len(data) must be exactly
// DataBytes(); when k is not a byte multiple the unused high bits of the
// last byte must be zero. The returned slice has ParityBytes() bytes.
//
// The computation streams data through the table-driven LFSR (eight bytes
// per step for the paper's code, see feed264).
func (c *Code) Encode(data []byte) []byte {
	if len(data) != c.DataBytes() {
		panic(fmt.Sprintf("bch: Encode: got %d data bytes, want %d", len(data), c.DataBytes()))
	}
	sc := c.getScratch()
	c.enc.remainder(sc.state, data)
	out := make([]byte, c.ParityBytes())
	stateBytes(sc.state, out)
	c.putScratch(sc)
	return out
}

// maxParityBits is the widest parity New accepts: EncodeDeltaInto's
// stack accumulator holds maxParityBits/64 words. Every code in this
// repository fits; the widest, the Fig 3 Flash-style 41-EC code, has 533.
const maxParityBits = 1024

// EncodeDeltaInto computes the parity update f(delta) for a sparse data
// change and writes its ParityBytes() bytes into out: delta is XOR(old, new)
// for the region it covers, starting at data bit bitOffset, which must be
// byte-aligned (chips address whole bytes). XORing out into the stored
// parity yields the parity of the new data. This is the operation the paper
// embeds in NVRAM chips (Fig. 11): the chip receives the bitwise sum of old
// and new data and updates the VLEW code bits without knowing either value
// in full. It allocates nothing; the demand write path calls it per chip.
//
// Short deltas — a demand write hands each chip 8 bytes — skip the LFSR
// and its x^bitOffset zero-feed: they sum precomputed nibble rows
//
//	row[p][n] = n(x) * x^(8p+r) mod g(x),  row[p][16+n] = (n<<4)(x) * x^(8p+r) mod g(x)
//
// two per byte, lo[v&15] ^ hi[v>>4], whatever the offset (see deltaTables;
// DataBytes x 32 x w words, 320 KiB for the paper's code, built once per
// Code on first use and shared by every chip holding it).
//
// Long deltas — an EUR drain covering most of a VLEW — take the LFSR with
// a stack-resident state instead. It reads one byte-indexed encoder row
// per delta byte, where the nibble path reads two, but then pays the
// x^bitOffset shift: one more row per zero byte, eight zero bytes per step
// for the paper's code. lfsrDeltaBytes is the crossover.
//
//chipkill:noalloc
func (c *Code) EncodeDeltaInto(out, delta []byte, bitOffset int) {
	if len(out) != c.ParityBytes() {
		panic(fmt.Sprintf("bch: EncodeDeltaInto: got %d out bytes, want %d", len(out), c.ParityBytes()))
	}
	if bitOffset < 0 || bitOffset%8 != 0 || bitOffset+8*len(delta) > c.k {
		panic(fmt.Sprintf("bch: EncodeDeltaInto: %d bytes at bit offset %d are unaligned or overflow k=%d", len(delta), bitOffset, c.k))
	}
	w := c.enc.w
	if len(delta) >= lfsrDeltaBytes {
		var acc [maxParityBits / 64]uint64
		c.enc.remainder(acc[:w], delta)
		c.enc.zeroFeed(acc[:w], bitOffset/8)
		stateBytes(acc[:w], out)
		return
	}
	d := c.deltaTables() //chipkill:allow noalloc one-time table build; steady state is an atomic pointer load
	if d.rows264 != nil {
		d.encode264(out, delta, bitOffset/8)
		return
	}
	var acc [maxParityBits / 64]uint64
	d.encode(acc[:w], delta, bitOffset/8)
	stateBytes(acc[:w], out)
}

// lfsrDeltaBytes is the crossover between EncodeDeltaInto's two
// strategies: deltas at least this long stream through the LFSR, shorter
// ones sum nibble rows. With warm tables the nibble path costs about 3.5 ns
// per delta byte wherever it sits, the LFSR about 1.1 ns per byte of delta
// plus offset (2-CPU Xeon host), so at 64 bytes the LFSR wins for offsets
// up to ~150 bytes and is close beyond. The lengths that occur are far from
// it: demand writes hand each chip 8 bytes, and row-streaming EUR drains a
// whole VLEW at offset 0 (256 bytes for the paper's code).
const lfsrDeltaBytes = 64

// Decode corrects bit errors in data and parity in place. It returns the
// number of bits corrected, or ErrUncorrectable when the error pattern
// exceeds the code's capability. On error, data and parity are unchanged.
//
// Decode can miscorrect when more than t errors are present: like any
// bounded-distance decoder it may map the received word onto a different
// codeword. Callers that need a lower silent-data-corruption probability
// apply an acceptance threshold on the number of corrections (see
// internal/core).
//
// The work it does follows the error count. Codes with table paths and
// t >= 4 first try a tier for at most four errors (decodeFew, in
// tables.go): S_1..S_8 only, the locator of those eight syndromes, its
// closed-form roots, and an exact codeword check on the remainder after
// the flips. An answer that tier accepts is the full decoder's answer on
// every input, miscorrections included: it is a codeword within distance
// 4 <= t of the received word, and the code's minimum distance is at
// least 2t+1, so no other codeword lies within distance t and the
// t-error decoder — whose locator is unique for any pattern of weight
// <= t — returns that same codeword with that same count. On any other
// outcome the full t-error path runs, reusing the remainder.
func (c *Code) Decode(data, parity []byte) (int, error) {
	if len(data) != c.DataBytes() || len(parity) != c.ParityBytes() {
		return 0, fmt.Errorf("bch: Decode: got %d data bytes and %d parity bytes, want %d and %d",
			len(data), len(parity), c.DataBytes(), c.ParityBytes())
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	syn := sc.syn
	switch d := c.decTables(); {
	case c.t < fewErrors:
		if c.syndromesInto(syn, data, parity, sc) {
			return 0, nil
		}
	case c.remainderInto(d, data, parity, sc):
		return 0, nil
	default:
		if fixed, ok := c.decodeFew(d, data, parity, sc); ok {
			return fixed, nil
		}
		c.oddSyndromes(d, syn, sc, 1)
	}
	sigma := c.berlekampMassey(syn, sc)
	if gf.PolyDeg(sigma) > c.t {
		return 0, ErrUncorrectable
	}
	positions, ok := c.findRoots(sigma, sc)
	if !ok {
		return 0, ErrUncorrectable
	}
	c.flip(data, parity, positions)
	// Guard against residual errors: with e <= t genuine errors the
	// corrected word is a codeword. Rather than re-evaluating the whole
	// word, fold each flipped bit's contribution alpha^(p*e) into the
	// syndromes — flipping bit p changes S_e by exactly that term — and
	// check that they cancel. Only the odd ones are folded and checked:
	// the corrected word is a binary polynomial, so S_2e = S_e^2 and
	// vanishing odd syndromes force the even ones.
	n := c.field.N()
	for _, p := range positions {
		idx, step := p, 2*p%n // alpha^p, then times alpha^(2p) per odd syndrome
		for j := 0; j < len(syn); j += 2 {
			syn[j] ^= c.exp[idx]
			if idx += step; idx >= n {
				idx -= n
			}
		}
	}
	for j := 0; j < len(syn); j += 2 {
		if syn[j] != 0 {
			c.flip(data, parity, positions) // roll back
			return 0, ErrUncorrectable
		}
	}
	return len(positions), nil
}

// flip toggles the codeword bits at the given degrees: p < r is parity bit
// p, otherwise data bit p-r.
func (c *Code) flip(data, parity []byte, positions []int) {
	for _, p := range positions {
		if p < c.r {
			parity[p/8] ^= 1 << uint(p%8)
		} else {
			d := p - c.r
			data[d/8] ^= 1 << uint(d%8)
		}
	}
}

// CheckClean reports whether data||parity is a codeword (no errors
// detected), without attempting correction. It costs one byte-wise
// remainder computation — no syndrome evaluation.
func (c *Code) CheckClean(data, parity []byte) bool {
	if len(data) != c.DataBytes() || len(parity) != c.ParityBytes() {
		panic(fmt.Sprintf("bch: CheckClean: got %d data bytes and %d parity bytes, want %d and %d",
			len(data), len(parity), c.DataBytes(), c.ParityBytes()))
	}
	return c.isCodeword(data, parity)
}

// String implements fmt.Stringer.
func (c *Code) String() string {
	return fmt.Sprintf("BCH(n=%d,k=%d,t=%d) over GF(2^%d)", c.n, c.k, c.t, c.m)
}

// ParityBitsEstimate returns the paper's storage-cost formula for BCH:
// t * (floor(log2 k) + 1) code bits to correct t errors in k data bits.
// The actual deg(g) can be slightly smaller; the paper (and our storage
// accounting) uses this bound.
func ParityBitsEstimate(k, t int) int {
	if k <= 0 || t <= 0 {
		return 0
	}
	m := 0
	for v := k; v > 0; v >>= 1 {
		m++
	}
	return t * m
}
