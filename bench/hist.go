package main

import "math/bits"

// hist is a log-bucketed latency histogram over nanosecond values: exact
// below 64 ns, then 64 sub-buckets per power of two, so a bucket is never
// wider than 1/64 (1.6 %) of its lower edge. The array is fixed, so
// recording allocates nothing, and the samples of different clients pool
// into one histogram by bucket index (recorder.pool).
type hist struct {
	count   uint64
	buckets [histBuckets]uint32
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// 1 ns .. 2^34 ns (17 s); anything longer lands in the last bucket.
	histMaxExp  = 34
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// minTail is the number of samples that must lie beyond a reported
// percentile for it to repeat from run to run.
const minTail = 10

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	return (e-histSubBits+1)<<histSubBits + int(ns>>(uint(e)-histSubBits))&(histSub-1)
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := uint(i>>histSubBits) + histSubBits - 1
	width := uint64(1) << (e - histSubBits)
	l := (uint64(histSub) + uint64(i&(histSub-1))) * width
	return float64(l), float64(l + width)
}

func (h *hist) record(ns int64) {
	h.buckets[histIndex(ns)]++
	h.count++
}

// percentile returns the value at quantile p (0 < p < 1), interpolated
// by rank inside its bucket so the result is not quantised to bucket
// edges. A quantile with fewer than minTail samples beyond it does not
// repeat between runs, so the highest quantile that has them is reported
// in its place; used says which quantile the value belongs to. An empty
// histogram yields (0, 0).
func (h *hist) percentile(p float64) (value, used float64) {
	if h.count == 0 {
		return 0, 0
	}
	used = p
	if float64(h.count)*(1-p) < minTail {
		used = 1 - minTail/float64(h.count)
		if used < 0 {
			used = 0
		}
	}
	rank := used * float64(h.count)
	var seen float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(n), used
		}
		seen += float64(n)
	}
	_, hi := histBounds(histBuckets - 1)
	return hi, used
}
