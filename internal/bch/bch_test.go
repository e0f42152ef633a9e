package bch

import (
	"bytes"

	"chipkillpm/internal/gf"
	"math/rand"
	"testing"
	"testing/quick"
)

// flipBits flips the given bit positions across the concatenation
// data||parity using the same layout Decode expects (parity at low
// degrees). Positions here index data bits 0..k-1 and parity bits
// k..k+r-1 for test convenience.
func flipDataBits(data []byte, positions ...int) {
	for _, p := range positions {
		data[p/8] ^= 1 << uint(p%8)
	}
}

func TestKnownCodeShapes(t *testing.T) {
	cases := []struct {
		m       uint
		k, t    int
		maxPar  int // paper estimate t*m
		comment string
	}{
		{10, 512, 14, 140, "per-block 14-EC BCH over 64B (Sec III-A)"},
		{12, 2048, 22, 264, "VLEW 22-EC BCH over 256B (Sec V-A)"},
		{13, 4096, 41, 533, "Flash-style 41-EC over 512B (Fig 3)"},
	}
	for _, c := range cases {
		code, err := New(c.m, c.k, c.t)
		if err != nil {
			t.Fatalf("%s: %v", c.comment, err)
		}
		if code.ParityBits() > c.maxPar {
			t.Errorf("%s: parity=%d bits exceeds estimate %d", c.comment, code.ParityBits(), c.maxPar)
		}
		if got := ParityBitsEstimate(c.k, c.t); got != c.maxPar {
			t.Errorf("%s: ParityBitsEstimate=%d, want %d", c.comment, got, c.maxPar)
		}
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New(10, 0, 3); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(10, 512, 0); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := New(6, 512, 3); err == nil {
		t.Error("k+r > 2^m-1 accepted")
	}
	if _, err := New(40, 512, 3); err == nil {
		t.Error("unsupported m accepted")
	}
	// The table paths serve 8..maxParityBits parity bits.
	if c, err := New(4, 5, 1); err == nil {
		t.Errorf("%v with %d parity bits accepted", c, c.ParityBits())
	}
	if c, err := New(13, 4096, 100); err == nil {
		t.Errorf("%v with %d parity bits accepted", c, c.ParityBits())
	}
}

func TestEncodeDecodeNoErrors(t *testing.T) {
	code := Must(10, 512, 4)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, code.DataBytes())
	rng.Read(data)
	parity := code.Encode(data)
	if len(parity) != code.ParityBytes() {
		t.Fatalf("parity length %d, want %d", len(parity), code.ParityBytes())
	}
	if !code.CheckClean(data, parity) {
		t.Fatal("fresh codeword reports errors")
	}
	n, err := code.Decode(data, parity)
	if err != nil || n != 0 {
		t.Fatalf("Decode clean: n=%d err=%v", n, err)
	}
}

func TestCorrectsUpToT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, params := range []struct {
		m    uint
		k, t int
	}{
		{10, 512, 4}, {10, 512, 14}, {12, 2048, 22},
	} {
		code := Must(params.m, params.k, params.t)
		orig := make([]byte, code.DataBytes())
		rng.Read(orig)
		parity := code.Encode(orig)
		for e := 1; e <= code.T(); e++ {
			data := bytes.Clone(orig)
			par := bytes.Clone(parity)
			// e distinct random positions across data+parity bits.
			flipped := map[int]bool{}
			for len(flipped) < e {
				flipped[rng.Intn(code.N())] = true
			}
			for p := range flipped {
				if p < code.K() {
					flipDataBits(data, p)
				} else {
					flipDataBits(par, p-code.K())
				}
			}
			n, err := code.Decode(data, par)
			if err != nil {
				t.Fatalf("t=%d: %d errors not corrected: %v", code.T(), e, err)
			}
			if n != e {
				t.Fatalf("t=%d: corrected %d, injected %d", code.T(), n, e)
			}
			if !bytes.Equal(data, orig) || !bytes.Equal(par, parity) {
				t.Fatalf("t=%d e=%d: corrected word differs from original", code.T(), e)
			}
		}
	}
}

func TestDetectsBeyondT(t *testing.T) {
	// With e in (t, 2t] errors a bounded-distance decoder either flags
	// uncorrectable or miscorrects; it must never silently return the
	// wrong data claiming <= t corrections of a valid codeword NOT equal
	// to a real codeword. We check: when Decode succeeds, the result is a
	// codeword; when it fails, inputs are untouched.
	code := Must(10, 512, 4)
	rng := rand.New(rand.NewSource(3))
	orig := make([]byte, code.DataBytes())
	rng.Read(orig)
	parity := code.Encode(orig)
	uncorrectable, miscorrected := 0, 0
	for trial := 0; trial < 50; trial++ {
		data := bytes.Clone(orig)
		par := bytes.Clone(parity)
		e := code.T() + 1 + rng.Intn(code.T())
		flipped := map[int]bool{}
		for len(flipped) < e {
			flipped[rng.Intn(code.N())] = true
		}
		for p := range flipped {
			if p < code.K() {
				flipDataBits(data, p)
			} else {
				flipDataBits(par, p-code.K())
			}
		}
		dataBefore := bytes.Clone(data)
		parBefore := bytes.Clone(par)
		n, err := code.Decode(data, par)
		if err != nil {
			uncorrectable++
			if !bytes.Equal(data, dataBefore) || !bytes.Equal(par, parBefore) {
				t.Fatal("failed Decode mutated its inputs")
			}
			continue
		}
		if n > code.T() {
			t.Fatalf("Decode claimed %d corrections > t=%d", n, code.T())
		}
		if !code.CheckClean(data, par) {
			t.Fatal("successful Decode left a non-codeword")
		}
		if !bytes.Equal(data, orig) {
			miscorrected++
		}
	}
	if uncorrectable == 0 {
		t.Error("expected at least some uncorrectable patterns beyond t")
	}
	t.Logf("beyond-t trials: %d uncorrectable, %d miscorrected", uncorrectable, miscorrected)
}

func TestEncodeDeltaMatchesFullReencode(t *testing.T) {
	// Linearity: parity(new) = parity(old) XOR EncodeDeltaInto(old XOR new).
	// This is the property the in-chip encoder + EUR rely on (Fig 11/12).
	code := Must(12, 2048, 22)
	rng := rand.New(rand.NewSource(4))
	oldData := make([]byte, code.DataBytes())
	rng.Read(oldData)
	oldParity := code.Encode(oldData)
	// Overwrite one 8-byte "chip access" at each possible block offset.
	for off := 0; off < code.DataBytes(); off += 8 {
		newData := bytes.Clone(oldData)
		delta := make([]byte, 8)
		rng.Read(delta)
		for i := range delta {
			newData[off+i] ^= delta[i]
		}
		got := make([]byte, code.ParityBytes())
		code.EncodeDeltaInto(got, delta, off*8)
		gf.XORBytes(got, oldParity)
		want := code.Encode(newData)
		if !bytes.Equal(got, want) {
			t.Fatalf("offset %d: incremental parity != full re-encode", off)
		}
	}
}

func TestEncodeDeltaCoalescing(t *testing.T) {
	// Multiple writes to the same VLEW coalesce: XOR of the individual
	// updates equals the update for the XOR-accumulated delta (EUR, Sec V-D).
	code := Must(12, 2048, 22)
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, code.DataBytes())
	rng.Read(data)
	parity := code.Encode(data)
	accum := make([]byte, code.ParityBytes())
	update := make([]byte, code.ParityBytes())
	cur := bytes.Clone(data)
	for w := 0; w < 10; w++ {
		off := 8 * rng.Intn(code.DataBytes()/8)
		delta := make([]byte, 8)
		rng.Read(delta)
		for i := range delta {
			cur[off+i] ^= delta[i]
		}
		code.EncodeDeltaInto(update, delta, off*8)
		gf.XORBytes(accum, update)
	}
	gf.XORBytes(parity, accum)
	if !bytes.Equal(parity, code.Encode(cur)) {
		t.Fatal("coalesced EUR update does not match re-encoded parity")
	}
}

func TestEncodePanicsOnWrongLength(t *testing.T) {
	code := Must(10, 512, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	code.Encode(make([]byte, 3))
}

func TestDecodeLengthError(t *testing.T) {
	code := Must(10, 512, 4)
	if _, err := code.Decode(make([]byte, 3), make([]byte, code.ParityBytes())); err == nil {
		t.Error("expected length error")
	}
}

// Property: encode/corrupt-up-to-t/decode round-trips for random data and
// random error patterns.
func TestRoundTripQuick(t *testing.T) {
	code := Must(10, 512, 6)
	prop := func(seed int64, eRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := int(eRaw) % (code.T() + 1)
		data := make([]byte, code.DataBytes())
		rng.Read(data)
		parity := code.Encode(data)
		want := bytes.Clone(data)
		flipped := map[int]bool{}
		for len(flipped) < e {
			flipped[rng.Intn(code.K())] = true
		}
		for p := range flipped {
			flipDataBits(data, p)
		}
		n, err := code.Decode(data, parity)
		return err == nil && n == e && bytes.Equal(data, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorDividesCodewords(t *testing.T) {
	// Every encoded word, viewed as a polynomial, must be divisible by g.
	code := Must(10, 512, 4)
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, code.DataBytes())
	rng.Read(data)
	parity := code.Encode(data)
	// Build codeword poly: parity at low degrees, data shifted by r.
	cw := poly2FromBytes(parity)
	// Mask any padding bits above r in the parity bytes.
	for i := code.ParityBits(); i < 8*len(parity); i++ {
		cw = cw.SetCoeff(i, 0)
	}
	cw = cw.Add(poly2FromBytes(data).Mul(gf.NewPoly2(code.ParityBits())))
	if _, rem := cw.DivMod(code.Generator()); !rem.IsZero() {
		t.Error("codeword not divisible by generator")
	}
}

// TestFlashStyleCode exercises the Fig 3 regime: a 512B-data Flash-style
// VLEW at 41-bit correction, the strongest commercial code the paper
// cites.
func TestFlashStyleCode(t *testing.T) {
	if testing.Short() {
		t.Skip("large-code round trip skipped in -short")
	}
	code := Must(13, 4096, 41)
	rng := rand.New(rand.NewSource(41))
	data := make([]byte, code.DataBytes())
	rng.Read(data)
	parity := code.Encode(data)
	want := bytes.Clone(data)
	flipped := map[int]bool{}
	for len(flipped) < 41 {
		flipped[rng.Intn(code.K())] = true
	}
	for p := range flipped {
		flipDataBits(data, p)
	}
	n, err := code.Decode(data, parity)
	if err != nil || n != 41 || !bytes.Equal(data, want) {
		t.Fatalf("41-EC round trip: n=%d err=%v", n, err)
	}
}

// TestGeneratorDegreeWithinEstimate: the real deg(g) never exceeds the
// paper's t*(floor(log2 k)+1) storage formula across a parameter sweep.
func TestGeneratorDegreeWithinEstimate(t *testing.T) {
	for _, p := range []struct {
		m    uint
		k, t int
	}{
		{8, 128, 3}, {9, 256, 5}, {10, 512, 8}, {11, 1024, 11}, {12, 2048, 16},
	} {
		code := Must(p.m, p.k, p.t)
		if est := ParityBitsEstimate(p.k, p.t); code.ParityBits() > est {
			t.Errorf("m=%d k=%d t=%d: deg(g)=%d exceeds estimate %d",
				p.m, p.k, p.t, code.ParityBits(), est)
		}
	}
}
