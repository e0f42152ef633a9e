package bch

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"chipkillpm/internal/gf"
)

// Differential tests: the table-driven Encode, EncodeDeltaInto and
// syndromes must match the bit-serial references (reference_test.go)
// bit-for-bit on randomized inputs, across code shapes with byte-aligned
// and unaligned parity widths.

var diffCodes = []struct {
	m    uint
	k, t int
}{
	{12, 2048, 22}, // the paper's VLEW code (r = 264, byte-aligned)
	{10, 512, 4},   // r = 40
	{10, 512, 14},  // the Flash-style baseline code
	{11, 800, 5},   // r = 55, not byte-aligned
	{13, 4096, 9},  // r = 117, not byte-aligned
	{8, 64, 2},     // small field
}

func TestEncodeMatchesBitSerial(t *testing.T) {
	for _, p := range diffCodes {
		code := Must(p.m, p.k, p.t)
		rng := rand.New(rand.NewSource(int64(p.k) + int64(p.t)))
		data := make([]byte, code.DataBytes())
		for trial := 0; trial < 50; trial++ {
			randomData(rng, data, code.k)
			fast := code.Encode(data)
			slow := code.encodeBitSerial(data)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("%v trial %d: Encode mismatch\nfast %x\nslow %x", code, trial, fast, slow)
			}
		}
	}
}

// TestEncodeDeltaMatchesBitSerial checks the delta reference the other
// tests trust: by linearity, the update for delta at any bit offset,
// byte-aligned or not, is the parity of the data word holding only that
// delta there, which Encode computes.
func TestEncodeDeltaMatchesBitSerial(t *testing.T) {
	for _, p := range diffCodes {
		code := Must(p.m, p.k, p.t)
		rng := rand.New(rand.NewSource(int64(p.k)*3 + int64(p.t)))
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(min(code.k/8, 16))
			delta := make([]byte, n)
			rng.Read(delta)
			off := rng.Intn(code.k - 8*n + 1)
			if trial%2 == 0 {
				off &^= 7 // byte-aligned, EncodeDeltaInto's domain, half the time
			}
			placed := poly2Bytes(poly2FromBytes(delta).Mul(gf.NewPoly2(off)), code.DataBytes())
			want := code.Encode(placed)
			if got := code.encodeDeltaBitSerial(delta, off); !bytes.Equal(got, want) {
				t.Fatalf("%v trial %d off %d: delta reference %x, Encode of the placed delta %x",
					code, trial, off, got, want)
			}
		}
	}
}

func TestEncodeDeltaIntoMatchesBitSerial(t *testing.T) {
	for _, p := range diffCodes {
		code := Must(p.m, p.k, p.t)
		rng := rand.New(rand.NewSource(int64(p.k)*5 + int64(p.t)))
		out := make([]byte, code.ParityBytes())
		for trial := 0; trial < 80; trial++ {
			maxLen := code.k / 8
			if maxLen > 16 && trial%4 != 3 {
				maxLen = 16 // short deltas: table path; every 4th trial stays long for the LFSR path
			}
			n := 1 + rng.Intn(maxLen)
			delta := make([]byte, n)
			rng.Read(delta)
			if trial%8 == 0 {
				for i := range delta {
					delta[i] = 0 // zero delta must produce zero parity
				}
			}
			off := 8 * rng.Intn((code.k-8*n)/8+1)
			code.EncodeDeltaInto(out, delta, off)
			slow := code.encodeDeltaBitSerial(delta, off)
			if !bytes.Equal(out, slow) {
				t.Fatalf("%v trial %d off %d: EncodeDeltaInto mismatch\nfast %x\nslow %x",
					code, trial, off, out, slow)
			}
		}
		// The demand shape: 8-byte deltas at every byte offset, so every
		// position of the nibble rows is read.
		delta := make([]byte, 8)
		for off := 0; off+len(delta) <= code.DataBytes() && 8*(off+len(delta)) <= code.k; off++ {
			rng.Read(delta)
			code.EncodeDeltaInto(out, delta, 8*off)
			if slow := code.encodeDeltaBitSerial(delta, 8*off); !bytes.Equal(out, slow) {
				t.Fatalf("%v 8 bytes at byte offset %d: EncodeDeltaInto mismatch\nfast %x\nslow %x", code, off, out, slow)
			}
		}
		// Dense deltas (the LFSR branch) at odd byte offsets, so the
		// x^bitOffset zero-feed runs both its eight-byte steps and its
		// single-byte tail.
		for off := 1; 8*(off+lfsrDeltaBytes) <= code.k; off += 2 {
			dense := make([]byte, lfsrDeltaBytes+rng.Intn(code.k/8-off-lfsrDeltaBytes+1))
			rng.Read(dense)
			code.EncodeDeltaInto(out, dense, 8*off)
			if slow := code.encodeDeltaBitSerial(dense, 8*off); !bytes.Equal(out, slow) {
				t.Fatalf("%v %d bytes at byte offset %d: EncodeDeltaInto mismatch\nfast %x\nslow %x", code, len(dense), off, out, slow)
			}
		}
	}
}

// TestEncodeDeltaIntoPanicsOnUnalignedOffset: chips address whole bytes,
// so a bit offset that is not byte-aligned is a caller bug, rejected like
// an out-of-range one.
func TestEncodeDeltaIntoPanicsOnUnalignedOffset(t *testing.T) {
	code := Must(12, 2048, 22)
	defer func() {
		if recover() == nil {
			t.Error("EncodeDeltaInto accepted bit offset 3")
		}
	}()
	code.EncodeDeltaInto(make([]byte, code.ParityBytes()), make([]byte, 8), 3)
}

// TestDeltaNibbleRowsMatchBitSerial checks the table itself, not only the
// encoder built on it: at a spread of byte positions, the low-nibble row
// of every byte value XORed with its high-nibble row must be the bit-serial
// encode of that single byte there.
func TestDeltaNibbleRowsMatchBitSerial(t *testing.T) {
	for _, p := range diffCodes {
		code := Must(p.m, p.k, p.t)
		d := code.deltaTables()
		state := make([]uint64, code.enc.w)
		got := make([]byte, code.ParityBytes())
		for _, pos := range []int{0, 7, 8, 9, 100, code.DataBytes() - 1} {
			if pos >= code.DataBytes() {
				continue
			}
			for v := 0; v < 256; v++ {
				if 8*pos+bits.Len8(uint8(v)) > code.k {
					continue // past k in a partial last byte
				}
				lo, hi := d.row(pos, v&15, code.enc.w), d.row(pos, 16+v>>4, code.enc.w)
				for j := range state {
					state[j] = lo[j] ^ hi[j]
				}
				stateBytes(state, got)
				if want := code.encodeDeltaBitSerial([]byte{byte(v)}, 8*pos); !bytes.Equal(got, want) {
					t.Fatalf("%v position %d value %#02x: nibble rows %x, bit-serial %x", code, pos, v, got, want)
				}
			}
		}
	}
}

// TestDeltaTablesSize pins the delta table of the paper's code (the one
// rank.PaperConfig hands every chip) at the nibble layout's size: one
// typed [32][5]uint64 block per data byte, nothing held beside it.
func TestDeltaTablesSize(t *testing.T) {
	code := Must(12, 2048, 22)
	d := code.deltaTables()
	if d.rows != nil || len(d.rows264) != code.DataBytes() {
		t.Fatalf("paper code: %d typed positions and %d flat words, want %d and 0",
			len(d.rows264), len(d.rows), code.DataBytes())
	}
	const maxBytes = 340 << 10
	if n := cap(d.rows264) * 32 * 5 * 8; n > maxBytes {
		t.Fatalf("paper code delta table holds %d bytes, want <= %d", n, maxBytes)
	}
}

func TestSyndromesMatchBitSerial(t *testing.T) {
	for _, p := range diffCodes {
		code := Must(p.m, p.k, p.t)
		rng := rand.New(rand.NewSource(int64(p.k)*7 + int64(p.t)))
		data := make([]byte, code.DataBytes())
		for trial := 0; trial < 50; trial++ {
			randomData(rng, data, code.k)
			parity := code.Encode(data)
			// Half the trials corrupt random bits of data and parity so
			// both the clean and the errorful syndrome paths are compared.
			if trial%2 == 1 {
				for e := 1 + rng.Intn(2*code.t); e > 0; e-- {
					if rng.Intn(2) == 0 && code.r > 0 {
						b := rng.Intn(code.r)
						parity[b/8] ^= 1 << uint(b%8)
					} else {
						b := rng.Intn(code.k)
						data[b/8] ^= 1 << uint(b%8)
					}
				}
			}
			fastSyn, fastClean := code.syndromes(data, parity)
			slowSyn, slowClean := code.syndromesBitSerial(data, parity)
			if fastClean != slowClean {
				t.Fatalf("%v trial %d: clean mismatch fast=%v slow=%v", code, trial, fastClean, slowClean)
			}
			if len(fastSyn) != len(slowSyn) {
				t.Fatalf("%v trial %d: syndrome count mismatch", code, trial)
			}
			for i := range fastSyn {
				if fastSyn[i] != slowSyn[i] {
					t.Fatalf("%v trial %d: S_%d mismatch: fast %#x slow %#x",
						code, trial, i+1, fastSyn[i], slowSyn[i])
				}
			}
			if code.CheckClean(data, parity) != slowClean {
				t.Fatalf("%v trial %d: CheckClean disagrees with bit-serial syndromes", code, trial)
			}
		}
	}
}

// TestSyndromesIgnoreSlackParityBits checks that both paths ignore the
// unused high bits of the last parity byte when r is not a byte multiple,
// which is how VLEW code slots with slack bytes are stored.
func TestSyndromesIgnoreSlackParityBits(t *testing.T) {
	code := Must(11, 800, 5)
	if code.r%8 == 0 {
		t.Skip("code unexpectedly byte-aligned")
	}
	rng := rand.New(rand.NewSource(99))
	data := make([]byte, code.DataBytes())
	randomData(rng, data, code.k)
	parity := code.Encode(data)
	if !code.CheckClean(data, parity) {
		t.Fatal("clean word reports dirty")
	}
	dirty := append([]byte(nil), parity...)
	dirty[len(dirty)-1] |= ^byte(1<<uint(code.r%8) - 1) // set all slack bits
	if !code.CheckClean(data, dirty) {
		t.Fatal("slack parity bits must be ignored by CheckClean")
	}
	if _, clean := code.syndromes(data, dirty); !clean {
		t.Fatal("slack parity bits must be ignored by the syndromes")
	}
}

// TestDecodeRandomizedRoundTrip hammers the fast decode path (remainder
// syndromes, allocation-free Berlekamp-Massey, closed-form and deflating
// root search) against ground truth: e <= t injected errors anywhere in
// the word must be corrected exactly; e > t must either be flagged
// uncorrectable or miscorrect onto a different codeword (bounded-distance
// behavior), never return success with a dirty word.
func TestDecodeRandomizedRoundTrip(t *testing.T) {
	for _, p := range diffCodes {
		code := Must(p.m, p.k, p.t)
		rng := rand.New(rand.NewSource(int64(p.k)*13 + int64(p.t)))
		data := make([]byte, code.DataBytes())
		for trial := 0; trial < 120; trial++ {
			randomData(rng, data, code.k)
			parity := code.Encode(data)
			wantData := append([]byte(nil), data...)
			wantParity := append([]byte(nil), parity...)

			e := trial % (code.t + 3) // exercise 0..t and a bit beyond
			flipped := map[int]bool{}
			for len(flipped) < e {
				flipped[rng.Intn(code.n)] = true
			}
			for pos := range flipped {
				if pos < code.r {
					parity[pos/8] ^= 1 << uint(pos%8)
				} else {
					d := pos - code.r
					data[d/8] ^= 1 << uint(d%8)
				}
			}

			fixed, err := code.Decode(data, parity)
			if e <= code.t {
				if err != nil {
					t.Fatalf("%v trial %d: e=%d should decode: %v", code, trial, e, err)
				}
				if fixed != e {
					t.Fatalf("%v trial %d: corrected %d bits, want %d", code, trial, fixed, e)
				}
				if !bytes.Equal(data, wantData) || !bytes.Equal(parity, wantParity) {
					t.Fatalf("%v trial %d: decode did not restore the codeword", code, trial)
				}
			} else if err == nil {
				// Miscorrection is allowed beyond t, but the result must
				// be a codeword.
				if !code.CheckClean(data, parity) {
					t.Fatalf("%v trial %d: decode claimed success on a non-codeword", code, trial)
				}
			}
		}
	}
}

// randomData fills buf with random bytes, zeroing the unused high bits of
// the last byte when k is not a byte multiple (Encode's contract).
func randomData(rng *rand.Rand, buf []byte, k int) {
	rng.Read(buf)
	if rem := k % 8; rem != 0 {
		buf[len(buf)-1] &= 1<<uint(rem) - 1
	}
}
