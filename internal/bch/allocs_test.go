//go:build !race

package bch

import (
	"math/rand"
	"testing"
)

// TestDecodeAllocsZero pins steady-state Decode at zero heap allocations
// for every root-finding route: clean, each closed form, the blocked scan
// and the uncorrectable exit. Not built under -race: the race detector
// makes sync.Pool drop items at random, so the scratch is reallocated.
func TestDecodeAllocsZero(t *testing.T) {
	code := Must(12, 2048, 22)
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, code.DataBytes())
	rng.Read(data)
	parity := code.Encode(data)
	for _, e := range []int{0, 1, 2, 3, 4, 5, 9, code.t, code.t + 8} {
		positions := rng.Perm(code.n)[:e]
		run := func() {
			code.flip(data, parity, positions)
			if _, err := code.Decode(data, parity); err != nil {
				code.flip(data, parity, positions) // Decode rolled back; undo the damage
			}
		}
		run() // tables and the pooled scratch are built on first use
		if n := testing.AllocsPerRun(50, run); n != 0 {
			t.Errorf("%d flips: Decode allocates %.1f objects per call, want 0", e, n)
		}
	}
}

// TestEncodeDeltaIntoAllocFree pins steady-state EncodeDeltaInto at zero
// heap allocations on both branches — nibble rows for the 8-byte demand
// shape, the LFSR with its zero-feed for EUR-drain-sized deltas — for the
// paper's typed layout and a flat one; chips call it on every EUR drain.
func TestEncodeDeltaIntoAllocFree(t *testing.T) {
	for _, code := range []*Code{Must(12, 2048, 22), Must(10, 512, 14)} {
		out := make([]byte, code.ParityBytes())
		sparse := []byte{0xA5, 0x5A, 0x01, 0xFF, 0x80, 0x7E, 0x33, 0xCC}
		dense := make([]byte, min(lfsrDeltaBytes+5, code.DataBytes()))
		for i := range dense {
			dense[i] = byte(i*37 + 1)
		}
		last := 8 * (code.DataBytes() - len(sparse))
		code.EncodeDeltaInto(out, sparse, 0) // build the nibble rows
		for name, run := range map[string]func(){
			"sparse": func() { code.EncodeDeltaInto(out, sparse, last) },
			"dense":  func() { code.EncodeDeltaInto(out, dense, 8*(code.DataBytes()-len(dense))) },
		} {
			if n := testing.AllocsPerRun(200, run); n != 0 {
				t.Errorf("%v %s: EncodeDeltaInto allocates %.1f per op, want 0", code, name, n)
			}
		}
	}
}
