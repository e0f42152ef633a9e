package bch

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// fuzzCode is the paper's VLEW code: BCH over GF(2^12), 2048 data bits,
// t=22. Built once; fuzz iterations only pay encode/corrupt/decode.
var fuzzCode = Must(12, 2048, 22)

// FuzzDecode asserts the decoder's contract on decode(corrupt(encode(x))):
//
//   - up to t flipped bits: decode succeeds, reports exactly that many
//     corrections, and restores data and parity bit-for-bit;
//   - beyond t flipped bits: decode either fails leaving the buffers
//     untouched (rollback guarantee), or lands on a codeword with at most
//     t corrections — bounded-distance miscorrection, never a non-codeword
//     and never a silent partial fix.
func FuzzDecode(f *testing.F) {
	f.Add([]byte("hello vlew"), byte(0), int64(1))
	f.Add(bytes.Repeat([]byte{0xa5}, 256), byte(1), int64(2))
	f.Add([]byte{}, byte(22), int64(3))
	f.Add(bytes.Repeat([]byte{0xff}, 300), byte(23), int64(4))
	f.Add([]byte("x"), byte(44), int64(5))

	f.Fuzz(func(t *testing.T, data []byte, nflips byte, seed int64) {
		code := fuzzCode
		buf := make([]byte, code.DataBytes())
		copy(buf, data)
		parity := code.Encode(buf)

		// 0..2t distinct flip positions across the whole codeword:
		// degree p < r is parity bit p, otherwise data bit p-r.
		flips := int(nflips) % (2*code.T() + 1)
		rng := rand.New(rand.NewSource(seed))
		n := code.K() + code.ParityBits()
		d2 := append([]byte(nil), buf...)
		p2 := append([]byte(nil), parity...)
		for _, p := range rng.Perm(n)[:flips] {
			if p < code.ParityBits() {
				p2[p/8] ^= 1 << uint(p%8)
			} else {
				d := p - code.ParityBits()
				d2[d/8] ^= 1 << uint(d%8)
			}
		}
		dIn := append([]byte(nil), d2...)
		pIn := append([]byte(nil), p2...)

		fixed, err := code.Decode(d2, p2)
		if flips <= code.T() {
			if err != nil {
				t.Fatalf("%d flips (<= t=%d): decode failed: %v", flips, code.T(), err)
			}
			if fixed != flips {
				t.Fatalf("%d flips: decode reported %d corrections", flips, fixed)
			}
			if !bytes.Equal(d2, buf) || !bytes.Equal(p2, parity) {
				t.Fatalf("%d flips: decode returned without restoring the codeword", flips)
			}
			return
		}
		if err != nil {
			if !bytes.Equal(d2, dIn) || !bytes.Equal(p2, pIn) {
				t.Fatalf("%d flips: failed decode modified its buffers", flips)
			}
			return
		}
		if fixed > code.T() {
			t.Fatalf("%d flips: decode claims %d corrections > t=%d", flips, fixed, code.T())
		}
		if !code.CheckClean(d2, p2) {
			t.Fatalf("%d flips: decode returned success on a non-codeword", flips)
		}
	})
}

// FuzzDecodeMatchesReference is the differential form of FuzzDecode: on
// the paper's code with 0..2t+2 flips, Decode must agree with the
// textbook decoder (decodeReference) on the correction count, the error
// and every byte — through the four-error tier, the affine-multiple
// roots, the scan, and beyond t, where both may miscorrect.
func FuzzDecodeMatchesReference(f *testing.F) {
	f.Add([]byte("one flip"), byte(1), int64(1))
	f.Add(bytes.Repeat([]byte{0x5a}, 256), byte(4), int64(2))
	f.Add([]byte{}, byte(5), int64(3))
	f.Add(bytes.Repeat([]byte{0xff}, 64), byte(8), int64(4))
	f.Add([]byte("past t"), byte(23), int64(5))

	f.Fuzz(func(t *testing.T, data []byte, nflips byte, seed int64) {
		code := fuzzCode
		buf := make([]byte, code.DataBytes())
		copy(buf, data)
		parity := code.Encode(buf)
		flips := int(nflips) % (2*code.T() + 3)
		rng := rand.New(rand.NewSource(seed))
		code.flip(buf, parity, rng.Perm(code.N())[:flips])

		wantData := append([]byte(nil), buf...)
		wantParity := append([]byte(nil), parity...)
		wantFixed, wantErr := decodeReference(code, wantData, wantParity)
		gotFixed, gotErr := code.Decode(buf, parity)
		if gotFixed != wantFixed || !errors.Is(gotErr, wantErr) {
			t.Fatalf("%d flips: Decode = (%d, %v), reference = (%d, %v)", flips, gotFixed, gotErr, wantFixed, wantErr)
		}
		if !bytes.Equal(buf, wantData) || !bytes.Equal(parity, wantParity) {
			t.Fatalf("%d flips: Decode and reference left different bytes", flips)
		}
	})
}
