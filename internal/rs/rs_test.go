package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperCode returns the paper's per-block RS(72,64) code.
func paperCode(t testing.TB) *Code {
	t.Helper()
	return Must(64, 8)
}

func TestCodeShape(t *testing.T) {
	c := paperCode(t)
	if c.K() != 64 || c.R() != 8 || c.N() != 72 {
		t.Fatalf("unexpected shape: k=%d r=%d n=%d", c.K(), c.R(), c.N())
	}
	if c.Distance() != 9 {
		t.Errorf("distance=%d, want 9", c.Distance())
	}
	if c.MaxErrors() != 4 {
		t.Errorf("MaxErrors=%d, want 4 (paper Sec V-C)", c.MaxErrors())
	}
	if c.MaxErasures() != 8 {
		t.Errorf("MaxErasures=%d, want 8 (chip failure = 8 bad bytes)", c.MaxErasures())
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	for _, p := range [][2]int{{0, 8}, {64, 0}, {250, 8}, {-1, 4}, {64, 9}, {64, 12}} {
		if _, err := New(p[0], p[1]); err == nil {
			t.Errorf("New(%d,%d) accepted", p[0], p[1])
		}
	}
}

func TestEncodeCheckClean(t *testing.T) {
	c := paperCode(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, c.K())
		rng.Read(data)
		check := c.Encode(data)
		if !c.Check(data, check) {
			t.Fatal("fresh codeword not clean")
		}
		corr, err := c.DecodeAppend(nil, data, check, nil)
		if err != nil || len(corr) != 0 {
			t.Fatalf("clean decode: corr=%v err=%v", corr, err)
		}
	}
}

func TestCorrectsRandomByteErrors(t *testing.T) {
	c := paperCode(t)
	rng := rand.New(rand.NewSource(2))
	for e := 1; e <= c.MaxErrors(); e++ {
		for trial := 0; trial < 25; trial++ {
			data := make([]byte, c.K())
			rng.Read(data)
			check := c.Encode(data)
			origData, origCheck := bytes.Clone(data), bytes.Clone(check)
			positions := rng.Perm(c.N())[:e]
			for _, p := range positions {
				delta := byte(1 + rng.Intn(255))
				if p < c.K() {
					data[p] ^= delta
				} else {
					check[p-c.K()] ^= delta
				}
			}
			corr, err := c.DecodeAppend(nil, data, check, nil)
			if err != nil {
				t.Fatalf("e=%d: %v", e, err)
			}
			if len(corr) != e {
				t.Fatalf("e=%d: corrected %d", e, len(corr))
			}
			if !bytes.Equal(data, origData) || !bytes.Equal(check, origCheck) {
				t.Fatalf("e=%d: wrong correction", e)
			}
		}
	}
}

func TestCorrectsChipFailureErasures(t *testing.T) {
	// A failed data chip contributes 8 consecutive bad bytes at a known
	// position; all 8 check bytes correct it via erasure decoding
	// (paper Sec V-B).
	c := paperCode(t)
	rng := rand.New(rand.NewSource(3))
	for chip := 0; chip < 8; chip++ {
		data := make([]byte, c.K())
		rng.Read(data)
		check := c.Encode(data)
		orig := bytes.Clone(data)
		erasures := make([]int, 8)
		for i := 0; i < 8; i++ {
			pos := chip*8 + i
			erasures[i] = pos
			data[pos] = byte(rng.Intn(256)) // garbage from the dead chip
		}
		corr, err := c.DecodeAppend(nil, data, check, erasures)
		if err != nil {
			t.Fatalf("chip %d: %v", chip, err)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("chip %d: reconstruction failed (%d corrections)", chip, len(corr))
		}
	}
}

func TestCorrectsParityChipErasure(t *testing.T) {
	// The parity chip failing erases all 8 check bytes; the data is intact
	// so re-encoding recovers them. Decode with 8 check-byte erasures must
	// also work.
	c := paperCode(t)
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, c.K())
	rng.Read(data)
	check := c.Encode(data)
	orig := bytes.Clone(check)
	erasures := make([]int, 8)
	for i := range erasures {
		erasures[i] = c.K() + i
		check[i] ^= byte(1 + rng.Intn(255))
	}
	if _, err := c.DecodeAppend(nil, data, check, erasures); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(check, orig) {
		t.Fatal("check bytes not reconstructed")
	}
}

func TestErrorsPlusErasuresBudget(t *testing.T) {
	// 2*errors + erasures <= r: e.g. 2 errors + 4 erasures with r=8.
	c := paperCode(t)
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, c.K())
	rng.Read(data)
	check := c.Encode(data)
	orig := bytes.Clone(data)
	perm := rng.Perm(c.K())
	erasures := perm[:4]
	errorsAt := perm[4:6]
	for _, p := range erasures {
		data[p] ^= byte(1 + rng.Intn(255))
	}
	for _, p := range errorsAt {
		data[p] ^= byte(1 + rng.Intn(255))
	}
	if _, err := c.DecodeAppend(nil, data, check, erasures); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("mixed errors+erasures decode failed")
	}
}

func TestTooManyErasuresRejected(t *testing.T) {
	c := paperCode(t)
	data := make([]byte, c.K())
	check := c.Encode(data)
	erasures := make([]int, 9)
	for i := range erasures {
		erasures[i] = i
	}
	if _, err := c.DecodeAppend(nil, data, check, erasures); !errors.Is(err, ErrUncorrectable) {
		t.Errorf("9 erasures: err=%v, want ErrUncorrectable", err)
	}
}

func TestBadErasurePositions(t *testing.T) {
	c := paperCode(t)
	data := make([]byte, c.K())
	check := c.Encode(data)
	if _, err := c.DecodeAppend(nil, data, check, []int{-1}); err == nil {
		t.Error("negative erasure accepted")
	}
	if _, err := c.DecodeAppend(nil, data, check, []int{c.N()}); err == nil {
		t.Error("out-of-range erasure accepted")
	}
	if _, err := c.DecodeAppend(nil, data, check, []int{3, 3}); err == nil {
		t.Error("duplicate erasure accepted")
	}
}

func TestBeyondCapabilityDetectedOrConsistent(t *testing.T) {
	c := paperCode(t)
	rng := rand.New(rand.NewSource(6))
	uncorrectable := 0
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, c.K())
		rng.Read(data)
		check := c.Encode(data)
		e := 5 + rng.Intn(8) // beyond the 4-error capability
		for _, p := range rng.Perm(c.N())[:e] {
			if p < c.K() {
				data[p] ^= byte(1 + rng.Intn(255))
			} else {
				check[p-c.K()] ^= byte(1 + rng.Intn(255))
			}
		}
		before, beforeCheck := bytes.Clone(data), bytes.Clone(check)
		corr, err := c.DecodeAppend(nil, data, check, nil)
		if err != nil {
			uncorrectable++
			if !bytes.Equal(data, before) || !bytes.Equal(check, beforeCheck) {
				t.Fatal("failed decode mutated inputs")
			}
			continue
		}
		// Miscorrection: must still land on a valid codeword.
		if !c.Check(data, check) {
			t.Fatal("successful decode produced a non-codeword")
		}
		if len(corr) > c.MaxErrors() {
			t.Fatalf("claimed %d corrections > capability", len(corr))
		}
	}
	if uncorrectable == 0 {
		t.Error("expected some uncorrectable patterns")
	}
	t.Logf("beyond-capability: %d/200 flagged uncorrectable", uncorrectable)
}

// TestSingleErrorEveryPosition sweeps a one-symbol error across every
// position of the paper's code, exercising the closed-form weight-1 decode
// path (geometric syndrome recognition) at all data and check offsets, and
// checks DecodeAppend reuses the caller's buffer (TestSingleErrorAllocsZero
// pins that it does not allocate).
func TestSingleErrorEveryPosition(t *testing.T) {
	c := paperCode(t)
	rng := rand.New(rand.NewSource(21))
	data := make([]byte, c.K())
	rng.Read(data)
	check := c.Encode(data)
	wantData := bytes.Clone(data)
	wantCheck := bytes.Clone(check)
	buf := make([]Correction, 0, 8)
	for pos := 0; pos < c.N(); pos++ {
		mag := byte(1 + rng.Intn(255))
		if pos < c.K() {
			data[pos] ^= mag
		} else {
			check[pos-c.K()] ^= mag
		}
		corr, err := c.DecodeAppend(buf, data, check, nil)
		if err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if len(corr) != 1 || corr[0].Pos != pos || corr[0].Old^corr[0].New != mag {
			t.Fatalf("pos %d: got corrections %+v, want one at pos with magnitude %#x", pos, corr, mag)
		}
		if &corr[0] != &buf[:1][0] {
			t.Fatalf("pos %d: DecodeAppend did not reuse the caller's buffer", pos)
		}
		if !bytes.Equal(data, wantData) || !bytes.Equal(check, wantCheck) {
			t.Fatalf("pos %d: decode did not restore the codeword", pos)
		}
	}
}

func TestDecodeLimitedThreshold(t *testing.T) {
	// Paper Sec V-C: accept RS corrections only when <= 2; otherwise leave
	// the block untouched for VLEW fallback.
	c := paperCode(t)
	rng := rand.New(rand.NewSource(7))
	for e := 0; e <= 4; e++ {
		data := make([]byte, c.K())
		rng.Read(data)
		check := c.Encode(data)
		orig := bytes.Clone(data)
		for _, p := range rng.Perm(c.K())[:e] {
			data[p] ^= byte(1 + rng.Intn(255))
		}
		corrupted := bytes.Clone(data)
		corr, err := c.DecodeLimitedAppend(nil, data, check, 2)
		if e <= 2 {
			if err != nil {
				t.Fatalf("e=%d: %v", e, err)
			}
			if len(corr) != e || !bytes.Equal(data, orig) {
				t.Fatalf("e=%d: bad accept path", e)
			}
		} else {
			if !errors.Is(err, ErrThreshold) {
				t.Fatalf("e=%d: err=%v, want ErrThreshold", e, err)
			}
			if !bytes.Equal(data, corrupted) {
				t.Fatalf("e=%d: rejected decode must not modify data", e)
			}
		}
	}
}

// TestEncodeDeltaMatchesFullReencode: the code is linear, so the check
// bytes of the new data are the old ones plus the delta's update.
func TestEncodeDeltaMatchesFullReencode(t *testing.T) {
	c := paperCode(t)
	rng := rand.New(rand.NewSource(8))
	oldData := make([]byte, c.K())
	rng.Read(oldData)
	oldCheck := c.Encode(oldData)
	for off := 0; off < c.K(); off += 8 {
		newData := bytes.Clone(oldData)
		delta := make([]byte, 8)
		rng.Read(delta)
		for i := range delta {
			newData[off+i] ^= delta[i]
		}
		update := c.encodeDeltaPolyDiv(delta, off)
		got := bytes.Clone(oldCheck)
		for i := range got {
			got[i] ^= update[i]
		}
		if !bytes.Equal(got, c.Encode(newData)) {
			t.Fatalf("offset %d: incremental check update mismatch", off)
		}
	}
}

func TestCorrectionMetadata(t *testing.T) {
	c := paperCode(t)
	data := make([]byte, c.K())
	check := c.Encode(data)
	data[10] ^= 0x5A
	corr, err := c.DecodeAppend(nil, data, check, nil)
	if err != nil || len(corr) != 1 {
		t.Fatalf("corr=%v err=%v", corr, err)
	}
	if corr[0].Pos != 10 || corr[0].Old != 0x5A || corr[0].New != 0 || corr[0].Erasure {
		t.Errorf("unexpected correction metadata: %+v", corr[0])
	}
}

// Property: random <=4-error patterns always round-trip on RS(72,64).
func TestRoundTripQuick(t *testing.T) {
	c := paperCode(t)
	prop := func(seed int64, eRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := int(eRaw) % (c.MaxErrors() + 1)
		data := make([]byte, c.K())
		rng.Read(data)
		check := c.Encode(data)
		want := bytes.Clone(data)
		for _, p := range rng.Perm(c.K())[:e] {
			data[p] ^= byte(1 + rng.Intn(255))
		}
		corr, err := c.DecodeAppend(nil, data, check, nil)
		return err == nil && len(corr) == e && bytes.Equal(data, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: erasure-only decoding recovers any <=8 erased bytes.
func TestErasureQuick(t *testing.T) {
	c := paperCode(t)
	prop := func(seed int64, eRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := int(eRaw) % (c.MaxErasures() + 1)
		data := make([]byte, c.K())
		rng.Read(data)
		check := c.Encode(data)
		want := bytes.Clone(data)
		erasures := rng.Perm(c.K())[:e]
		for _, p := range erasures {
			data[p] = byte(rng.Intn(256))
		}
		_, err := c.DecodeAppend(nil, data, check, erasures)
		return err == nil && bytes.Equal(data, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeBlock(b *testing.B) {
	c := Must(64, 8)
	data := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(data)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Encode(data)
	}
}

func BenchmarkDecode2Errors(b *testing.B) {
	c := Must(64, 8)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64)
	rng.Read(data)
	check := c.Encode(data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := bytes.Clone(data)
		ch := bytes.Clone(check)
		d[5] ^= 0xA5
		d[40] ^= 0x3C
		b.StartTimer()
		if _, err := c.DecodeAppend(nil, d, ch, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParameterSweep exercises the codec across (k, r) shapes beyond the
// paper's RS(72,64): every shape must correct floor(r/2) errors and r
// erasures.
func TestParameterSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, shape := range [][2]int{{16, 4}, {32, 6}, {64, 8}, {128, 7}, {223, 8}} {
		c, err := New(shape[0], shape[1])
		if err != nil {
			t.Fatalf("New(%v): %v", shape, err)
		}
		data := make([]byte, c.K())
		rng.Read(data)
		check := c.Encode(data)
		orig := bytes.Clone(data)

		// Max random errors.
		for _, p := range rng.Perm(c.K())[:c.MaxErrors()] {
			data[p] ^= byte(1 + rng.Intn(255))
		}
		if _, err := c.DecodeAppend(nil, data, check, nil); err != nil || !bytes.Equal(data, orig) {
			t.Fatalf("shape %v: max-error decode failed: %v", shape, err)
		}

		// Max erasures.
		erasures := rng.Perm(c.K())[:c.MaxErasures()]
		for _, p := range erasures {
			data[p] = byte(rng.Intn(256))
		}
		if _, err := c.DecodeAppend(nil, data, check, erasures); err != nil || !bytes.Equal(data, orig) {
			t.Fatalf("shape %v: max-erasure decode failed: %v", shape, err)
		}
	}
}
