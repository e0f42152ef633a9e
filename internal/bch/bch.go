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
// old and new data alone: f(x) XOR f(x') = f(x XOR x'). EncodeDelta exposes
// exactly that operation; it is what the paper's in-NVRAM-chip encoder and
// ECC Update Registerfile (EUR) evaluate on each write.
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

	enc       *encTables // byte-wise LFSR tables; nil when r < 8
	decOnce   sync.Once
	dec       *decTables // syndrome and closed-form root tables, built on demand
	deltaTabs atomic.Pointer[deltaTables]
	scratch   sync.Pool // *decodeScratch
}

// New constructs a binary BCH code over GF(2^m) that protects k data bits
// and corrects up to t bit errors. It returns an error when the shortened
// length k + deg(g) exceeds 2^m - 1 or the parameters are degenerate.
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
	c := &Code{field: field, exp: field.ExpTable(), m: m, t: t, k: k, r: r, n: k + r, gen: gen}
	c.enc = c.buildEncTables()
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
// per step for the paper's code, see feed264); EncodeBitSerial is the
// retained reference implementation.
func (c *Code) Encode(data []byte) []byte {
	if len(data) != c.DataBytes() {
		panic(fmt.Sprintf("bch: Encode: got %d data bytes, want %d", len(data), c.DataBytes()))
	}
	if c.enc == nil {
		return c.EncodeBitSerial(data)
	}
	sc := c.getScratch()
	c.enc.remainder(sc.state, data)
	out := make([]byte, c.ParityBytes())
	stateBytes(sc.state, out)
	c.putScratch(sc)
	return out
}

// EncodeBitSerial is the original bit-serial systematic encoder:
// parity(x) = (data(x) * x^r) mod g(x) via generic polynomial division.
// It is retained as the differential-testing oracle and as the fallback
// for degenerate codes with fewer than 8 parity bits; production callers
// use Encode.
func (c *Code) EncodeBitSerial(data []byte) []byte {
	if len(data) != c.DataBytes() {
		panic(fmt.Sprintf("bch: Encode: got %d data bytes, want %d", len(data), c.DataBytes()))
	}
	p := gf.Poly2FromBytes(data).Shl(c.r).Mod(c.gen)
	return p.Bytes(c.ParityBytes())
}

// EncodeDelta computes the parity update f(delta) for a sparse data change:
// delta is XOR(old, new) for the bitOffset-aligned region it covers, where
// bitOffset is the position of delta's first bit within the k data bits.
// XORing the result into the stored parity yields the parity of the new
// data. This is the operation the paper embeds in NVRAM chips (Fig. 11):
// the chip receives the bitwise sum of old and new data and updates the
// VLEW code bits without knowing either value in full.
//
// Byte-aligned offsets (every caller in this repository; chips address
// whole bytes) take the table-driven path: the delta streams through the
// LFSR followed by bitOffset/8 zero-feed steps for the x^bitOffset shift.
// Unaligned offsets fall back to EncodeDeltaBitSerial.
func (c *Code) EncodeDelta(delta []byte, bitOffset int) []byte {
	if bitOffset < 0 || bitOffset+8*len(delta) > c.k {
		panic(fmt.Sprintf("bch: EncodeDelta: %d bytes at bit offset %d overflow k=%d", len(delta), bitOffset, c.k))
	}
	if c.enc == nil || bitOffset%8 != 0 {
		return c.EncodeDeltaBitSerial(delta, bitOffset)
	}
	sc := c.getScratch()
	c.enc.remainder(sc.state, delta)
	c.enc.zeroFeed(sc.state, bitOffset/8)
	out := make([]byte, c.ParityBytes())
	stateBytes(sc.state, out)
	c.putScratch(sc)
	return out
}

// maxDeltaWords bounds the stack-resident accumulator used by
// EncodeDeltaInto: codes with up to 512 parity bits (every code in this
// repository; the paper's is 264) take the allocation-free path.
const maxDeltaWords = 8

// EncodeDeltaInto is the allocation-free EncodeDelta used on the demand
// write path: it writes the ParityBytes() parity update for delta at
// bitOffset into out.
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
	if bitOffset < 0 || bitOffset+8*len(delta) > c.k {
		panic(fmt.Sprintf("bch: EncodeDeltaInto: %d bytes at bit offset %d overflow k=%d", len(delta), bitOffset, c.k))
	}
	if c.enc == nil || bitOffset%8 != 0 || c.enc.w > maxDeltaWords {
		copy(out, c.EncodeDelta(delta, bitOffset)) //chipkill:allow noalloc degenerate-code fallback, never hit by the paper's geometry
		return
	}
	var acc [maxDeltaWords]uint64
	w := c.enc.w
	if len(delta) >= lfsrDeltaBytes {
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

// EncodeDeltaBitSerial is the original bit-serial delta encoder, retained
// as the differential-testing oracle and the fallback for bit-unaligned
// offsets; production callers use EncodeDelta.
func (c *Code) EncodeDeltaBitSerial(delta []byte, bitOffset int) []byte {
	if bitOffset < 0 || bitOffset+8*len(delta) > c.k {
		panic(fmt.Sprintf("bch: EncodeDelta: %d bytes at bit offset %d overflow k=%d", len(delta), bitOffset, c.k))
	}
	p := gf.Poly2FromBytes(delta).Shl(c.r + bitOffset).Mod(c.gen)
	return p.Bytes(c.ParityBytes())
}

// XORParity XORs src into dst in place; a convenience mirroring the EUR's
// accumulate operation. Both must be ParityBytes() long.
func (c *Code) XORParity(dst, src []byte) {
	if len(dst) != c.ParityBytes() || len(src) != c.ParityBytes() {
		panic("bch: XORParity: parity length mismatch")
	}
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Syndromes evaluates the received word at alpha^1..alpha^2t and reports
// whether all syndromes are zero (i.e. the word is a codeword). The
// received word is data || parity with parity occupying degrees 0..r-1 and
// data bit i at degree r+i.
//
// The fast path reduces the word modulo g(x) with the byte-wise LFSR and
// evaluates only the r-bit remainder — valid because alpha^1..alpha^2t are
// roots of g — tabulating odd syndromes per remainder byte and deriving
// even ones by squaring (S_2e = S_e^2 in characteristic 2).
func (c *Code) Syndromes(data, parity []byte) ([]gf.Elem, bool) {
	if len(data) != c.DataBytes() || len(parity) != c.ParityBytes() {
		panic(fmt.Sprintf("bch: Syndromes: got %d data bytes and %d parity bytes, want %d and %d",
			len(data), len(parity), c.DataBytes(), c.ParityBytes()))
	}
	syn := make([]gf.Elem, 2*c.t)
	sc := c.getScratch()
	clean := c.syndromesInto(syn, data, parity, sc)
	c.putScratch(sc)
	return syn, clean
}

// SyndromesBitSerial is the original per-set-bit syndrome evaluation,
// retained as the differential-testing oracle and the fallback for codes
// without byte-wise tables; production callers use Syndromes.
func (c *Code) SyndromesBitSerial(data, parity []byte) ([]gf.Elem, bool) {
	syn := make([]gf.Elem, 2*c.t)
	clean := true
	addBit := func(deg int) {
		for j := range syn {
			syn[j] ^= c.field.Exp(deg * (j + 1))
		}
	}
	for i, b := range parity {
		for bit := 0; bit < 8; bit++ {
			if b&(1<<uint(bit)) != 0 {
				deg := 8*i + bit
				if deg < c.r {
					addBit(deg)
				}
			}
		}
	}
	for i, b := range data {
		for bit := 0; bit < 8; bit++ {
			if b&(1<<uint(bit)) != 0 {
				addBit(c.r + 8*i + bit)
			}
		}
	}
	for _, s := range syn {
		if s != 0 {
			clean = false
			break
		}
	}
	return syn, clean
}

// chien finds all error positions (bit degrees in the received polynomial)
// by locating roots of sigma. It returns nil and false when the number of
// roots inside the shortened code does not match deg(sigma).
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

// Decode corrects bit errors in data and parity in place. It returns the
// number of bits corrected, or ErrUncorrectable when the error pattern
// exceeds the code's capability. On error, data and parity are unchanged.
//
// Decode can miscorrect when more than t errors are present: like any
// bounded-distance decoder it may map the received word onto a different
// codeword. Callers that need a lower silent-data-corruption probability
// apply an acceptance threshold on the number of corrections (see
// internal/core).
func (c *Code) Decode(data, parity []byte) (int, error) {
	if len(data) != c.DataBytes() || len(parity) != c.ParityBytes() {
		return 0, fmt.Errorf("bch: Decode: got %d data bytes and %d parity bytes, want %d and %d",
			len(data), len(parity), c.DataBytes(), c.ParityBytes())
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	syn := sc.syn
	if c.syndromesInto(syn, data, parity, sc) {
		return 0, nil
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
