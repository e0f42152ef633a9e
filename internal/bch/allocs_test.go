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
