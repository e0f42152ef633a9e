//go:build !race

package rs

import (
	"math/rand"
	"testing"
)

// TestSingleErrorAllocsZero pins the weight-1 DecodeAppend at zero heap
// allocations with a reused correction buffer. Not built under -race: the
// race detector makes sync.Pool drop items at random, so the decoder's
// scratch is reallocated.
func TestSingleErrorAllocsZero(t *testing.T) {
	c := paperCode(t)
	rng := rand.New(rand.NewSource(21))
	data := make([]byte, c.K())
	rng.Read(data)
	check := c.Encode(data)
	buf := make([]Correction, 0, 8)
	if n := testing.AllocsPerRun(200, func() {
		data[11] ^= 0x5A
		if _, err := c.DecodeAppend(buf, data, check, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("single-error DecodeAppend allocates %.1f per op, want 0", n)
	}
}
