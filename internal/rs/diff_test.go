package rs

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chipkillpm/internal/gf"
)

// Differential tests: the table-driven Encode, EncodeInto and syndrome
// paths must match the polynomial-division and Horner references below
// exactly, across the paper shape and other (k, r) geometries New accepts.

var diffCodes = []struct{ k, r int }{
	{64, 8}, // the paper's RS(72, 64)
	{32, 4},
	{16, 2},
	{100, 8},
	{1, 1},
}

// The references. Each is the textbook definition over gf.Poly arithmetic
// and shares no code with the LFSR tables it checks. They are oracles
// only; production code has one implementation of each kernel.

// polyMod returns p mod d over f by long division.
func polyMod(f *gf.Field, p, d gf.Poly) gf.Poly {
	dd := gf.PolyDeg(d)
	rem := slices.Clone(p)
	lead := f.Inv(d[dd])
	for rd := gf.PolyDeg(rem); rd >= dd; rd = gf.PolyDeg(rem) {
		q := f.Mul(rem[rd], lead)
		for i := 0; i <= dd; i++ {
			rem[i+rd-dd] ^= f.Mul(d[i], q)
		}
	}
	return rem
}

// encodeDeltaPolyDiv is the check-byte update for delta placed at data
// byte byteOffset: delta(x)*x^(r+byteOffset) mod g(x).
func (c *Code) encodeDeltaPolyDiv(delta []byte, byteOffset int) []byte {
	if byteOffset < 0 || byteOffset+len(delta) > c.k {
		panic(fmt.Sprintf("rs: encodeDeltaPolyDiv: %d bytes at offset %d overflow k=%d", len(delta), byteOffset, c.k))
	}
	p := make(gf.Poly, c.r+byteOffset+len(delta))
	for j, b := range delta {
		p[c.r+byteOffset+j] = gf.Elem(b)
	}
	return polyBytes(polyMod(c.f, p, c.gen), c.r)
}

// encodePolyDiv is the reference for Encode: data(x)*x^r mod g(x).
func (c *Code) encodePolyDiv(data []byte) []byte {
	if len(data) != c.k {
		panic(fmt.Sprintf("rs: encodePolyDiv: got %d data bytes, want %d", len(data), c.k))
	}
	return c.encodeDeltaPolyDiv(data, 0)
}

// syndromesHorner is the reference for the syndromes: S_1..S_r, the
// received word evaluated at each root of g by Horner's rule over all n
// symbols, and whether all are zero.
func (c *Code) syndromesHorner(data, check []byte) (gf.Poly, bool) {
	syn := make(gf.Poly, c.r)
	clean := true
	for j := 1; j <= c.r; j++ {
		var s gf.Elem
		a := c.f.Exp(j)
		// Highest degree first: data[k-1] has the highest degree r+k-1.
		for i := c.k - 1; i >= 0; i-- {
			s = c.f.Mul(s, a) ^ gf.Elem(data[i])
		}
		for i := c.r - 1; i >= 0; i-- {
			s = c.f.Mul(s, a) ^ gf.Elem(check[i])
		}
		syn[j-1] = s
		clean = clean && s == 0
	}
	return syn, clean
}

func TestEncodeMatchesPolyDiv(t *testing.T) {
	for _, p := range diffCodes {
		code := Must(p.k, p.r)
		rng := rand.New(rand.NewSource(int64(p.k)*17 + int64(p.r)))
		data := make([]byte, code.K())
		for trial := 0; trial < 100; trial++ {
			rng.Read(data)
			if trial%8 == 0 {
				// Leading zeros exercise the LFSR skip path.
				for i := code.K() / 2; i < code.K(); i++ {
					data[i] = 0
				}
			}
			fast := code.Encode(data)
			slow := code.encodePolyDiv(data)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("%v trial %d: Encode mismatch\nfast %x\nslow %x", code, trial, fast, slow)
			}
		}
	}
}

// TestEncodeDeltaMatchesPolyDiv checks Encode on sparse words, the shape
// its leading-zero skip and all-zero-chunk short circuit serve: a data word
// holding only delta at byteOffset encodes to the delta reference.
func TestEncodeDeltaMatchesPolyDiv(t *testing.T) {
	for _, p := range diffCodes {
		code := Must(p.k, p.r)
		rng := rand.New(rand.NewSource(int64(p.k)*23 + int64(p.r)))
		placed := make([]byte, code.K())
		for trial := 0; trial < 100; trial++ {
			n := 1 + rng.Intn(code.K())
			delta := make([]byte, n)
			rng.Read(delta)
			if trial%5 == 0 {
				for i := range delta {
					delta[i] = 0 // the all-zero word
				}
			}
			off := rng.Intn(code.K() - n + 1)
			clear(placed)
			copy(placed[off:], delta)
			fast := code.Encode(placed)
			slow := code.encodeDeltaPolyDiv(delta, off)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("%v trial %d off %d: Encode of the placed delta mismatch\nfast %x\nslow %x",
					code, trial, off, fast, slow)
			}
		}
	}
}

// TestRemainderSlicedMatchesByteLoop pins the slicing-by-8 remainder
// evaluation against the serial byte-at-a-time LFSR it replaces, across
// lengths that hit the sliced path (multiples of 8) and patterns that
// exercise the all-zero-chunk short circuit.
func TestRemainderSlicedMatchesByteLoop(t *testing.T) {
	code := Must(64, 8)
	e := code.enc
	if e == nil || !e.sliced {
		t.Fatal("RS(72,64) should build sliced encoder tables")
	}
	byteLoop := func(data []byte) uint64 {
		var state uint64
		for i := len(data) - 1; i >= 0; i-- {
			state = e.step(state, data[i])
		}
		return state
	}
	rng := rand.New(rand.NewSource(97))
	for _, n := range []int{8, 16, 24, 64, 128} {
		data := make([]byte, n)
		for trial := 0; trial < 200; trial++ {
			rng.Read(data)
			switch trial % 4 {
			case 1: // zero tail: sliced must agree with the leading-zero skip
				for i := n / 2; i < n; i++ {
					data[i] = 0
				}
			case 2: // zero head: interior all-zero chunks
				for i := 0; i < n/2; i++ {
					data[i] = 0
				}
			case 3: // single nonzero byte
				for i := range data {
					data[i] = 0
				}
				data[rng.Intn(n)] = byte(1 + rng.Intn(255))
			}
			if got, want := e.remainderSliced(data), byteLoop(data); got != want {
				t.Fatalf("n=%d trial %d: sliced remainder %#x, byte loop %#x\ndata %x",
					n, trial, got, want, data)
			}
		}
	}
	// All-zero input must yield a zero register on both paths.
	if got := e.remainderSliced(make([]byte, 64)); got != 0 {
		t.Fatalf("sliced remainder of zero data = %#x, want 0", got)
	}
}

func TestEncodeIntoMatchesEncode(t *testing.T) {
	for _, p := range diffCodes {
		code := Must(p.k, p.r)
		rng := rand.New(rand.NewSource(int64(p.k)*29 + int64(p.r)))
		data := make([]byte, code.K())
		check := make([]byte, code.R())
		for trial := 0; trial < 50; trial++ {
			rng.Read(data)
			code.EncodeInto(check, data)
			if want := code.Encode(data); !bytes.Equal(check, want) {
				t.Fatalf("%v trial %d: EncodeInto %x, Encode %x", code, trial, check, want)
			}
		}
	}
}

func TestSyndromesMatchHorner(t *testing.T) {
	for _, p := range diffCodes {
		code := Must(p.k, p.r)
		rng := rand.New(rand.NewSource(int64(p.k)*29 + int64(p.r)))
		data := make([]byte, code.K())
		for trial := 0; trial < 100; trial++ {
			rng.Read(data)
			check := code.Encode(data)
			if trial%2 == 1 {
				for e := 1 + rng.Intn(code.R()+2); e > 0; e-- {
					if rng.Intn(code.N()) < code.K() {
						data[rng.Intn(code.K())] ^= byte(1 + rng.Intn(255))
					} else {
						check[rng.Intn(code.R())] ^= byte(1 + rng.Intn(255))
					}
				}
			}
			fast := make([]byte, code.R())
			sc := code.getScratch()
			fastClean := code.syndromesInto(sc.syn, data, check)
			for i, s := range sc.syn {
				fast[i] = byte(s)
			}
			code.putScratch(sc)
			slowSyn, slowClean := code.syndromesHorner(data, check)
			if fastClean != slowClean {
				t.Fatalf("%v trial %d: clean mismatch fast=%v slow=%v", code, trial, fastClean, slowClean)
			}
			for i := range slowSyn {
				if fast[i] != byte(slowSyn[i]) {
					t.Fatalf("%v trial %d: S_%d mismatch fast %#x slow %#x",
						code, trial, i+1, fast[i], slowSyn[i])
				}
			}
			if code.Check(data, check) != slowClean {
				t.Fatalf("%v trial %d: Check disagrees with Horner syndromes", code, trial)
			}
		}
	}
}

// TestDecodeRandomizedRoundTrip hammers the scratch-pooled decoder against
// ground truth across error/erasure mixes: 2*errors + erasures <= r must
// restore the codeword exactly; overload must either error out or land on
// some other codeword, never report success on a dirty word.
func TestDecodeRandomizedRoundTrip(t *testing.T) {
	for _, p := range diffCodes {
		code := Must(p.k, p.r)
		rng := rand.New(rand.NewSource(int64(p.k)*31 + int64(p.r)))
		data := make([]byte, code.K())
		for trial := 0; trial < 300; trial++ {
			rng.Read(data)
			check := code.Encode(data)
			wantData := append([]byte(nil), data...)
			wantCheck := append([]byte(nil), check...)

			rho := rng.Intn(code.R() + 1)
			maxErr := (code.R() - rho) / 2
			e := rng.Intn(maxErr + 2) // occasionally one beyond capacity
			positions := rng.Perm(code.N())
			erasures := positions[:rho]
			errPos := positions[rho : rho+e]
			corrupt := func(pos int) {
				v := byte(1 + rng.Intn(255))
				if pos < code.K() {
					data[pos] ^= v
				} else {
					check[pos-code.K()] ^= v
				}
			}
			// Half the erasures actually hold wrong values; the rest were
			// declared bad but happen to be correct.
			for i, pos := range erasures {
				if i%2 == 0 {
					corrupt(pos)
				}
			}
			for _, pos := range errPos {
				corrupt(pos)
			}

			corr, err := code.DecodeAppend(nil, data, check, erasures)
			if e <= maxErr {
				if err != nil {
					t.Fatalf("%v trial %d: rho=%d e=%d should decode: %v", code, trial, rho, e, err)
				}
				if !bytes.Equal(data, wantData) || !bytes.Equal(check, wantCheck) {
					t.Fatalf("%v trial %d: decode did not restore the codeword", code, trial)
				}
				for _, cr := range corr {
					if cr.Old == cr.New {
						t.Fatalf("%v trial %d: no-op correction reported at %d", code, trial, cr.Pos)
					}
				}
			} else if err == nil {
				if !code.Check(data, check) {
					t.Fatalf("%v trial %d: decode claimed success on a non-codeword", code, trial)
				}
			} else {
				// Failed decodes must leave the inputs untouched only for
				// ErrUncorrectable paths that promise rollback; sanity-check
				// the word still decodes after manual restore.
				copy(data, wantData)
				copy(check, wantCheck)
			}
		}
	}
}

// TestDecodeLeavesInputUnchangedOnError verifies the rollback contract on
// an uncorrectable pattern.
func TestDecodeLeavesInputUnchangedOnError(t *testing.T) {
	code := Must(64, 8)
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 64)
	rng.Read(data)
	check := code.Encode(data)
	dirtyData := append([]byte(nil), data...)
	for i := 0; i < 6; i++ { // 6 errors > MaxErrors()=4
		dirtyData[i*7] ^= byte(1 + rng.Intn(255))
	}
	dirtyCheck := append([]byte(nil), check...)
	gotData := append([]byte(nil), dirtyData...)
	gotCheck := append([]byte(nil), dirtyCheck...)
	if _, err := code.DecodeAppend(nil, gotData, gotCheck, nil); err == nil {
		return // miscorrected onto another codeword: allowed for e > t
	}
	if !bytes.Equal(gotData, dirtyData) || !bytes.Equal(gotCheck, dirtyCheck) {
		t.Fatal("failed decode modified its inputs")
	}
}
