package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// fuzzCode is the paper's per-block code: RS(72,64) over GF(2^8), 64 data
// bytes plus 8 check bytes from the parity chip.
var fuzzCode = Must(64, 8)

// FuzzDecode asserts the decoder's contract on decode(corrupt(encode(x)))
// for mixed error/erasure patterns, plus the thresholded runtime decoder:
//
//   - 2*errors + erasures <= r: Decode restores the block exactly, with at
//     most errors+erasures corrections, and every non-erasure correction
//     sits on an actually-corrupted position;
//   - beyond the bound: Decode either fails leaving the buffers untouched
//     or returns a valid codeword (bounded-distance miscorrection);
//   - errors-only, DecodeLimitedAppend(threshold=2): at most 2 errors restore
//     exactly; 3 or 4 errors must be refused with ErrThreshold and rolled
//     back (distance 9 leaves them at least 5 from any other codeword, so
//     a <=2-correction miscorrection is impossible).
func FuzzDecode(f *testing.F) {
	f.Add([]byte("sixty-four bytes of block data"), byte(0), byte(0), int64(1))
	f.Add(bytes.Repeat([]byte{0x5a}, 64), byte(2), byte(0), int64(2))
	f.Add([]byte{}, byte(0), byte(8), int64(3))
	f.Add(bytes.Repeat([]byte{0xff}, 70), byte(1), byte(6), int64(4))
	f.Add([]byte("chipkill"), byte(4), byte(0), int64(5))
	f.Add([]byte("overload"), byte(5), byte(8), int64(6))

	f.Fuzz(func(t *testing.T, data []byte, nerr, nerase byte, seed int64) {
		code := fuzzCode
		buf := make([]byte, code.K())
		copy(buf, data)
		check := code.Encode(buf)

		e := int(nerr) % 6   // 0..5 forced symbol errors
		s := int(nerase) % 9 // 0..8 declared erasures
		rng := rand.New(rand.NewSource(seed))
		positions := rng.Perm(code.N())
		errPos := positions[:e]
		erasures := append([]int(nil), positions[e:e+s]...)

		d2 := append([]byte(nil), buf...)
		c2 := append([]byte(nil), check...)
		for _, p := range errPos {
			if p < code.K() {
				d2[p] ^= byte(1 + rng.Intn(255))
			} else {
				c2[p-code.K()] ^= byte(1 + rng.Intn(255))
			}
		}
		for _, p := range erasures {
			// Erased symbols hold arbitrary values — possibly the correct
			// one; the decoder must restore them regardless.
			if p < code.K() {
				d2[p] = byte(rng.Intn(256))
			} else {
				c2[p-code.K()] = byte(rng.Intn(256))
			}
		}
		dIn := append([]byte(nil), d2...)
		cIn := append([]byte(nil), c2...)

		corrs, err := code.DecodeAppend(nil, d2, c2, erasures)
		if 2*e+s <= code.R() {
			if err != nil {
				t.Fatalf("e=%d s=%d within capability: decode failed: %v", e, s, err)
			}
			if !bytes.Equal(d2, buf) || !bytes.Equal(c2, check) {
				t.Fatalf("e=%d s=%d: decode returned without restoring the block", e, s)
			}
			if len(corrs) > e+s {
				t.Fatalf("e=%d s=%d: %d corrections exceed the corrupted positions", e, s, len(corrs))
			}
			inErr := make(map[int]bool, e)
			for _, p := range errPos {
				inErr[p] = true
			}
			for _, c := range corrs {
				if !c.Erasure && !inErr[c.Pos] {
					t.Fatalf("e=%d s=%d: correction at untouched position %d", e, s, c.Pos)
				}
			}
		} else {
			if err != nil {
				if !bytes.Equal(d2, dIn) || !bytes.Equal(c2, cIn) {
					t.Fatalf("e=%d s=%d: failed decode modified its buffers", e, s)
				}
			} else if !code.Check(d2, c2) {
				t.Fatalf("e=%d s=%d: decode returned success on a non-codeword", e, s)
			}
		}

		if s != 0 {
			return
		}
		// Errors-only: the runtime thresholded decoder.
		d3 := append([]byte(nil), dIn...)
		c3 := append([]byte(nil), cIn...)
		corrs, err = code.DecodeLimitedAppend(nil, d3, c3, 2)
		switch {
		case e <= 2:
			if err != nil {
				t.Fatalf("e=%d <= threshold: DecodeLimited failed: %v", e, err)
			}
			if !bytes.Equal(d3, buf) || !bytes.Equal(c3, check) {
				t.Fatalf("e=%d: DecodeLimited returned without restoring the block", e)
			}
			if len(corrs) != e {
				t.Fatalf("e=%d: DecodeLimited applied %d corrections", e, len(corrs))
			}
		case e <= code.MaxErrors():
			if !errors.Is(err, ErrThreshold) {
				t.Fatalf("e=%d: DecodeLimited returned %v, want ErrThreshold", e, err)
			}
			if !bytes.Equal(d3, dIn) || !bytes.Equal(c3, cIn) {
				t.Fatalf("e=%d: refused DecodeLimited modified its buffers", e)
			}
		default:
			// Beyond MaxErrors the word may decode to a different codeword
			// within the threshold; success must at least be a codeword,
			// failure must leave the buffers untouched.
			if err == nil {
				if !code.Check(d3, c3) {
					t.Fatalf("e=%d: DecodeLimited success on a non-codeword", e)
				}
			} else if !bytes.Equal(d3, dIn) || !bytes.Equal(c3, cIn) {
				t.Fatalf("e=%d: failed DecodeLimited modified its buffers", e)
			}
		}
	})
}
