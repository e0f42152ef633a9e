// Package obs holds the repository's observability primitives. Its first
// piece is a striped counter set: hot-path counters that many goroutines
// bump concurrently without sharing a cache line, folded only when
// somebody asks for the value.
//
// A single atomic counter bumped by every reader costs nothing on one
// core and a cache-line transfer per increment on two: the line
// ping-pongs between the cores and the increment, not the work it
// counts, sets the pace. Counters here keep one copy per stripe instead.
// Each goroutine picks its stripe from its own stack address (Stripe), so
// two live goroutines land on different lines unless their stack granules
// hash together, and a snapshot sums the stripes. Every stripe is updated
// atomically, so the stripe a goroutine picks only decides speed: a
// collision, a goroutine whose stack moved, or a call from a different
// depth all count exactly the same.
package obs

import (
	"sync/atomic"
	"unsafe"

	"chipkillpm/internal/cpu"
)

// Stripes is the number of stripes Stripe spreads goroutines over, and
// the most a counter set can have.
const Stripes = 64

const (
	stripeBits = 6 // log2(Stripes)
	// granuleShift is log2 of Go's minimum goroutine stack (2 KiB).
	// Stacks are power-of-two sized, at least that large, and start on a
	// boundary of at least 2 KiB (their own size up to 8 KiB, a page
	// beyond), so two live goroutines never have an address in the same
	// 2 KiB granule. TestStripeGranulesDistinct pins this on the running
	// Go version.
	granuleShift = 11
	lineWords    = cpu.CacheLineBytes / 8 // int64 counters per cache line
)

// granule returns the 2 KiB granule of the calling goroutine's stack.
//
//chipkill:seqread
//chipkill:noalloc
func granule() uint64 {
	var probe byte
	return uint64(uintptr(unsafe.Pointer(&probe))) >> granuleShift
}

// Stripe returns the calling goroutine's stripe in [0, Stripes): its
// stack granule under a Fibonacci hash, so goroutines whose stacks sit
// next to each other still spread over the stripes. Two goroutines share
// a stripe with probability 1/Stripes. The answer is stable while the
// goroutine's stack does not move and its call depth stays within one
// granule; counters never depend on that, only their speed does.
//
//chipkill:seqread
//chipkill:noalloc
func Stripe() int {
	return int((granule() * 0x9e3779b97f4a7c15) >> (64 - stripeBits))
}

// Counters is a set of int64 counters ("slots"), each kept once per
// stripe. A stripe's slots are contiguous and padded to whole cache lines,
// and the set starts on a line boundary, so goroutines on different
// stripes never write the same line.
//
// Add is the hot path: one atomic add on the caller's stripe. Load and
// Reset walk every stripe of one slot; they are for snapshots, not for
// per-operation use. A Load concurrent with Adds returns some value
// between the slot's totals before and after them, like a plain atomic
// counter read mid-stream; a Reset concurrent with Adds may keep or drop
// each of them, like a plain Store(0).
type Counters struct {
	slots  int
	stride int  // int64 words per stripe: slots rounded up to whole lines
	shift  uint // Stripe() >> shift is this set's stripe
	v      []atomic.Int64
}

// NewCounters returns a zeroed set of slots counters over stripes
// stripes, a power of two in [1, Stripes]. Memory is stripes × slots × 8
// bytes, rounded up to whole cache lines per stripe, so large slot counts
// may want fewer stripes at the price of more collisions.
func NewCounters(slots, stripes int) *Counters {
	if slots < 1 {
		panic("obs: counter set needs at least one slot")
	}
	shift := uint(0)
	for Stripes>>shift > stripes {
		shift++
	}
	if stripes < 1 || Stripes>>shift != stripes {
		panic("obs: stripes must be a power of two in [1, Stripes]")
	}
	stride := (slots + lineWords - 1) / lineWords * lineWords
	// The size is a whole number of lines, and Go's size classes for such
	// sizes start every object on a line boundary (large objects on a
	// page), so the first stripe is line-aligned without a spare line.
	// TestCountersLayout pins that.
	v := make([]atomic.Int64, stripes*stride)
	return &Counters{slots: slots, stride: stride, shift: shift, v: v}
}

// Add adds d to counter slot on the calling goroutine's stripe.
//
//chipkill:seqread
//chipkill:noalloc
func (c *Counters) Add(slot int, d int64) {
	if uint(slot) >= uint(c.slots) {
		panic("obs: counter slot out of range")
	}
	c.v[(Stripe()>>c.shift)*c.stride+slot].Add(d)
}

// Load returns counter slot summed over every stripe.
func (c *Counters) Load(slot int) int64 {
	if uint(slot) >= uint(c.slots) {
		panic("obs: counter slot out of range")
	}
	var sum int64
	for i := slot; i < len(c.v); i += c.stride {
		sum += c.v[i].Load()
	}
	return sum
}

// Reset zeroes counter slot on every stripe, leaving the other slots
// alone.
func (c *Counters) Reset(slot int) {
	if uint(slot) >= uint(c.slots) {
		panic("obs: counter slot out of range")
	}
	for i := slot; i < len(c.v); i += c.stride {
		c.v[i].Store(0)
	}
}
