// Package rs implements Reed-Solomon codes over GF(2^8) with
// errors-and-erasures decoding.
//
// The paper's per-block chip-failure code is RS(72, 64): 64 data bytes from
// eight data chips plus 8 check bytes held in a ninth (parity) chip. Its
// minimum distance is 9, so it can correct any 4 random byte errors, or up
// to 8 byte erasures (a whole failed chip whose position is known), or
// mixes with 2*errors + erasures <= 8.
//
// The scheme additionally uses DecodeLimitedAppend: an errors-only decode
// that accepts the result only when it makes at most `threshold`
// corrections. A miscorrection is far more likely to surface as many
// corrections than as few, so capping accepted corrections at 2 drops the
// silent-data-corruption rate from 3.2e-11 to 3.3e-22 (paper appendix) at
// the cost of occasionally falling back to VLEW correction.
package rs

import (
	"errors"
	"fmt"
	"sync"

	"chipkillpm/internal/gf"
)

// ErrUncorrectable reports an error pattern beyond the code's capability.
var ErrUncorrectable = errors.New("rs: uncorrectable error pattern")

// ErrThreshold reports that an errors-only decode succeeded but needed more
// corrections than the caller's acceptance threshold; the input was left
// unmodified and the caller should fall back to a stronger code (VLEWs).
var ErrThreshold = errors.New("rs: corrections exceed acceptance threshold")

// Code is an (n, k) Reed-Solomon code over GF(2^8) with r = n-k check
// symbols and first consecutive root alpha^1. Its tables are immutable
// after New and all methods are safe for concurrent use; per-call decode
// state lives in a scratch pool so concurrent decoders share nothing.
type Code struct {
	f   *gf.Field
	k   int // data symbols (bytes)
	r   int // check symbols (bytes)
	n   int // total symbols
	gen gf.Poly

	enc     *encTables // packed-uint64 LFSR tables
	dec     *decTables // per-root multiplication tables
	scratch sync.Pool  // *decodeScratch
}

// New constructs an RS code with k data bytes and r check bytes. r is at
// most 8: the table paths pack the check symbols into one uint64.
func New(k, r int) (*Code, error) {
	f := gf.MustField(8)
	if k < 1 || r < 1 {
		return nil, fmt.Errorf("rs: k=%d, r=%d must be >= 1", k, r)
	}
	if r > 8 {
		return nil, fmt.Errorf("rs: r=%d check symbols exceed the packed LFSR's 8", r)
	}
	if k+r > f.N() {
		return nil, fmt.Errorf("rs: n=%d exceeds field bound %d", k+r, f.N())
	}
	// g(x) = prod_{j=1..r} (x - alpha^j).
	gen := gf.Poly{1}
	for j := 1; j <= r; j++ {
		gen = f.PolyMul(gen, gf.Poly{f.Exp(j), 1})
	}
	c := &Code{f: f, k: k, r: r, n: k + r, gen: gen}
	c.enc = c.buildEncTables()
	c.dec = c.buildDecTables()
	return c, nil
}

// Must is New but panics on error.
func Must(k, r int) *Code {
	c, err := New(k, r)
	if err != nil {
		panic(err)
	}
	return c
}

// K returns the number of data bytes per codeword.
func (c *Code) K() int { return c.k }

// R returns the number of check bytes per codeword.
func (c *Code) R() int { return c.r }

// N returns the codeword length in bytes.
func (c *Code) N() int { return c.n }

// Distance returns the minimum Hamming distance, r+1.
func (c *Code) Distance() int { return c.r + 1 }

// MaxErrors returns the maximum number of random byte errors correctable
// with no erasures: floor(r/2).
func (c *Code) MaxErrors() int { return c.r / 2 }

// MaxErasures returns the maximum number of byte erasures correctable with
// no random errors: r.
func (c *Code) MaxErasures() int { return c.r }

// codeword coefficient layout: check symbol i sits at polynomial degree i
// (i in [0,r)), data byte j at degree r+j. Position p in the public API
// means data byte p for p < k and check byte p-k for p >= k.

func (c *Code) posToDegree(p int) int {
	if p < c.k {
		return c.r + p
	}
	return p - c.k
}

func (c *Code) degreeToPos(d int) int {
	if d < c.r {
		return c.k + d
	}
	return d - c.r
}

// Encode computes the r check bytes for the k data bytes. It streams the
// data through the precomputed LFSR tables: eight bytes per step when r = 8
// and k is a multiple of 8 (the paper's code), one byte per step otherwise.
func (c *Code) Encode(data []byte) []byte {
	if len(data) != c.k {
		panic(fmt.Sprintf("rs: Encode: got %d data bytes, want %d", len(data), c.k))
	}
	state := c.enc.remainder(data)
	check := make([]byte, c.r)
	for i := range check {
		check[i] = byte(state >> (8 * uint(i)))
	}
	return check
}

// EncodeInto computes the r check bytes for the k data bytes into the
// caller-owned check buffer, allocation-free. It is Encode for hot paths
// (the controller's write path reuses one buffer).
//
//chipkill:noalloc
func (c *Code) EncodeInto(check, data []byte) {
	if len(data) != c.k || len(check) != c.r {
		panic(fmt.Sprintf("rs: EncodeInto: got %d data and %d check bytes, want %d and %d",
			len(data), len(check), c.k, c.r))
	}
	state := c.enc.remainder(data)
	for i := range check {
		check[i] = byte(state >> (8 * uint(i)))
	}
}

// Check reports whether data||check is a clean codeword: one LFSR pass and
// an 8-byte compare.
//
//chipkill:noalloc
func (c *Code) Check(data, check []byte) bool {
	c.validate(data, check)
	rem := c.enc.remainder(data)
	for i := 0; i < c.r; i++ {
		rem ^= uint64(check[i]) << (8 * uint(i))
	}
	return rem == 0
}

// SyndromeWord returns the syndrome word of data against its check bytes
// packed little-endian into w: the received word's remainder mod g(x),
// packed like w, which is zero exactly when data||w is a codeword — Check
// for callers that hold the stored check region as one 64-bit word, with
// the dirty case's remainder kept for CorrectWord. Only codes with exactly
// eight check symbols support it (the demand path's RS(72,64) qualifies);
// anything else panics. The panics use plain
// strings because the engine's seqlock-validated reader calls this
// between sequence checks and must stay free of impure calls.
//
//chipkill:noalloc
//chipkill:seqread
func (c *Code) SyndromeWord(data []byte, w uint64) uint64 {
	c.validateWord(data)
	return c.enc.remainder(data) ^ w
}

// CorrectWord applies the single-symbol correction that a nonzero
// syn = SyndromeWord(data, w) admits, if any: it reports the public
// position (data byte, or K()+i for check byte i) and the error magnitude,
// and XORs the magnitude into data when the position is a data byte. A
// check-byte position is only named; the data is already right.
//
// S1 and S2 come from a Horner pass over the eight remainder bytes; a
// weight-1 error at degree d with magnitude m has S1 = m*X, S2 = m*X^2
// for X = alpha^d, so X = S2/S1 names the position and S1/X the
// magnitude. The candidate is accepted only when the corrected word
// re-checks clean, which by linearity means syn equals the magnitude
// times the syndrome word of a unit error at degree d; a declined word
// leaves data untouched. At distance 9 a weight-1 errata pattern is
// unique, so this accepts exactly the words DecodeAppend corrects with
// one correction, with the same position and magnitude. Same code
// restriction and panics as SyndromeWord.
//
//chipkill:noalloc
//chipkill:seqread
func (c *Code) CorrectWord(data []byte, syn uint64) (pos int, mag byte, ok bool) {
	c.validateWord(data)
	f := c.f
	r1, r2 := c.dec.root[0], c.dec.root[1]
	var s1, s2 gf.Elem
	for i := c.r - 1; i >= 0; i-- {
		b := gf.Elem(byte(syn >> (8 * uint(i))))
		s1 = r1[s1] ^ b
		s2 = r2[s2] ^ b
	}
	if s1 == 0 || s2 == 0 {
		return 0, 0, false
	}
	x := f.Div(s2, s1)
	d := f.Log(x)
	if d >= c.n {
		return 0, 0, false
	}
	m := f.Div(s1, x)
	u := c.enc.unit[d]
	var e uint64
	for i := 0; i < c.r; i++ {
		e |= uint64(f.Mul(gf.Elem(byte(u>>(8*uint(i)))), m)) << (8 * uint(i))
	}
	if e != syn {
		return 0, 0, false
	}
	if d < c.r {
		return c.k + d, byte(m), true // check byte d: data is already right
	}
	pos = d - c.r
	data[pos] ^= byte(m)
	return pos, byte(m), true
}

// validateWord guards SyndromeWord and CorrectWord.
//
//chipkill:seqread
func (c *Code) validateWord(data []byte) {
	if c.r != 8 {
		panic("rs: packed-word check requires an 8-check-symbol code")
	}
	if len(data) != c.k {
		panic("rs: packed-word check data length mismatch")
	}
}

func (c *Code) validate(data, check []byte) {
	if len(data) != c.k || len(check) != c.r {
		panic(fmt.Sprintf("rs: got %d data and %d check bytes, want %d and %d",
			len(data), len(check), c.k, c.r))
	}
}

// Correction describes one applied symbol correction.
type Correction struct {
	Pos     int  // public position: data byte for Pos < K, check byte K+i otherwise
	Old     byte // symbol value before correction
	New     byte // symbol value after correction
	Erasure bool // true when the position was declared an erasure
}

// DecodeAppend corrects errors and erasures in place. erasures lists
// known-bad positions (data byte index for < k, k+i for check byte i);
// duplicate or out-of-range positions are rejected. On ErrUncorrectable,
// data and check are unchanged.
//
// The corrections applied go into buf[:0]'s backing array (grown only
// when capacity runs out), so steady-state callers — the controller's
// corrected-read path runs one decode per dirty block — allocate nothing.
// The returned slice aliases buf; it is valid until the caller's next
// DecodeAppend with the same buffer. A nil buf allocates the result.
func (c *Code) DecodeAppend(buf []Correction, data, check []byte, erasures []int) ([]Correction, error) {
	c.validate(data, check)
	if len(erasures) > c.r {
		return nil, fmt.Errorf("rs: %d erasures exceed capability %d: %w", len(erasures), c.r, ErrUncorrectable)
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	seen := sc.seen
	defer func() {
		for _, p := range erasures {
			if p >= 0 && p < c.n {
				seen[p] = false
			}
		}
	}()
	for _, p := range erasures {
		if p < 0 || p >= c.n {
			return nil, fmt.Errorf("rs: erasure position %d out of range [0,%d)", p, c.n)
		}
		if seen[p] {
			return nil, fmt.Errorf("rs: duplicate erasure position %d", p)
		}
		seen[p] = true
	}
	f := c.f

	syn := sc.syn
	if c.syndromesInto(syn, data, check) {
		// Nothing to do; erased positions already hold correct values.
		return nil, nil
	}

	// Closed-form single-error path: at realistic drift rates the vast
	// majority of dirty words carry exactly one bad symbol, whose syndromes
	// form a geometric sequence S_{j+1} = X*S_j. Recognising that shape
	// costs r multiplies and skips Berlekamp-Massey, the n-position Chien
	// scan, Forney evaluation and the post-correction syndrome re-check
	// (the r consistency equations already pin the unique weight-1 errata
	// pattern, so the corrected word is a codeword by construction).
	if len(erasures) == 0 && syn[0] != 0 && c.r >= 2 {
		f := c.f
		x := f.Div(syn[1], syn[0])
		if x != 0 {
			consistent := true
			for j := 0; j+1 < c.r; j++ {
				if syn[j+1] != f.Mul(x, syn[j]) {
					consistent = false
					break
				}
			}
			if consistent {
				if d := f.Log(x); d < c.n {
					mag := byte(f.Div(syn[0], x)) // fcr=1: S_1 = m*X
					pos := c.degreeToPos(d)
					var oldV byte
					if pos < c.k {
						oldV = data[pos]
						data[pos] ^= mag
					} else {
						oldV = check[pos-c.k]
						check[pos-c.k] ^= mag
					}
					return append(buf[:0], Correction{Pos: pos, Old: oldV, New: oldV ^ mag}), nil
				}
				// The geometric ratio points outside the shortened code:
				// an uncorrectable pattern, but let the general path make
				// that call so both paths agree on classification.
			}
		}
	}

	// Erasure locator Gamma(x) = prod (1 - X_i x), X_i = alpha^degree,
	// built in place by multiplying one linear factor at a time.
	gamma := sc.gamma[:1]
	gamma[0] = 1
	for _, p := range erasures {
		x := f.Exp(c.posToDegree(p))
		gamma = gamma[:len(gamma)+1]
		gamma[len(gamma)-1] = 0
		for i := len(gamma) - 1; i >= 1; i-- {
			gamma[i] ^= f.Mul(x, gamma[i-1])
		}
	}

	// Modified (Forney) syndromes: T(x) = S(x)*Gamma(x) mod x^r, then drop
	// the first rho coefficients; BM on the remainder finds the error
	// locator sigma for the non-erased errors.
	t := sc.tpoly[:c.r]
	for i := range t {
		t[i] = 0
	}
	for a, s := range syn {
		if s == 0 {
			continue
		}
		for b, g := range gamma {
			if a+b >= c.r {
				break
			}
			if g != 0 {
				t[a+b] ^= f.Mul(s, g)
			}
		}
	}
	rho := len(erasures)
	sigma := c.berlekampMasseyFast(t[rho:], sc)
	nu := gf.PolyDeg(sigma)
	if nu < 0 {
		nu = 0
	}
	if 2*nu+rho > c.r {
		return nil, ErrUncorrectable
	}

	// Errata locator lambda = sigma*gamma and evaluator
	// omega = syn*lambda mod x^r.
	lambda := sc.lambda[:nu+len(gamma)]
	for i := range lambda {
		lambda[i] = 0
	}
	if len(sigma) == 0 {
		copy(lambda, gamma)
	} else {
		for a, s := range sigma[:nu+1] {
			if s == 0 {
				continue
			}
			for b, g := range gamma {
				if g != 0 {
					lambda[a+b] ^= f.Mul(s, g)
				}
			}
		}
	}
	degLambda := gf.PolyDeg(gf.Poly(lambda))
	omega := sc.omega[:c.r]
	for i := range omega {
		omega[i] = 0
	}
	for a, s := range syn {
		if s == 0 {
			continue
		}
		for b, l := range lambda {
			if a+b >= c.r {
				break
			}
			if l != 0 {
				omega[a+b] ^= f.Mul(s, l)
			}
		}
	}
	omega = omega[:gf.PolyDeg(gf.Poly(omega))+1]
	// Formal derivative in characteristic 2: only odd-degree terms survive.
	deriv := sc.deriv[:0]
	if degLambda > 0 {
		deriv = sc.deriv[:degLambda]
		for i := range deriv {
			if i%2 == 0 {
				deriv[i] = lambda[i+1]
			} else {
				deriv[i] = 0
			}
		}
	}

	// Chien search across all n coefficient degrees with incremental term
	// registers: terms[j] tracks lambda[j] * alpha^(-d*j) and advancing d
	// multiplies term j by alpha^-j via its precomputed table.
	corrections := buf[:0]
	found := 0
	terms := sc.terms[:degLambda+1]
	copy(terms, lambda[:degLambda+1])
	for d := 0; d < c.n && found < degLambda; d++ {
		v := terms[0]
		for j := 1; j <= degLambda; j++ {
			v ^= terms[j]
		}
		if v == 0 {
			found++
			xInv := f.Exp(-d)
			denom := f.PolyEval(gf.Poly(deriv), xInv)
			if denom == 0 {
				return nil, ErrUncorrectable
			}
			// Forney, fcr=1: magnitude = Omega(Xinv) / Lambda'(Xinv).
			mag := f.Div(f.PolyEval(gf.Poly(omega), xInv), denom)
			if mag != 0 { // a zero magnitude is an erased position that was correct
				pos := c.degreeToPos(d)
				var oldV byte
				if pos < c.k {
					oldV = data[pos]
				} else {
					oldV = check[pos-c.k]
				}
				corrections = append(corrections, Correction{
					Pos: pos, Old: oldV, New: oldV ^ byte(mag), Erasure: seen[pos],
				})
			}
		}
		for j := 1; j <= degLambda; j++ {
			terms[j] = c.dec.step[j-1][terms[j]]
		}
	}
	if found != degLambda {
		return nil, ErrUncorrectable
	}
	for _, corr := range corrections {
		if corr.Pos < c.k {
			data[corr.Pos] = corr.New
		} else {
			check[corr.Pos-c.k] = corr.New
		}
	}
	if !c.syndromesInto(syn, data, check) {
		for _, corr := range corrections { // roll back
			if corr.Pos < c.k {
				data[corr.Pos] = corr.Old
			} else {
				check[corr.Pos-c.k] = corr.Old
			}
		}
		return nil, ErrUncorrectable
	}
	return corrections, nil
}

// DecodeLimitedAppend performs an errors-only decode but accepts the result
// only when it applies at most threshold corrections. When the decode would
// require more, it returns ErrThreshold and leaves the inputs unchanged,
// signalling the caller to fall back to VLEW correction (paper Fig. 8/9).
// buf is used as in DecodeAppend.
func (c *Code) DecodeLimitedAppend(buf []Correction, data, check []byte, threshold int) ([]Correction, error) {
	corrections, err := c.DecodeAppend(buf, data, check, nil)
	if err != nil {
		return nil, err
	}
	if len(corrections) > threshold {
		for _, corr := range corrections { // roll back: reject the correction
			if corr.Pos < c.k {
				data[corr.Pos] = corr.Old
			} else {
				check[corr.Pos-c.k] = corr.Old
			}
		}
		return nil, ErrThreshold
	}
	return corrections, nil
}

// String implements fmt.Stringer.
func (c *Code) String() string {
	return fmt.Sprintf("RS(n=%d,k=%d,d=%d) over GF(2^8)", c.n, c.k, c.Distance())
}
