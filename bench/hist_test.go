package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactPercentile is the reference: the value at rank p*n of the sorted
// samples.
func exactPercentile(sorted []int64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func bucketWidth(v float64) float64 {
	lo, hi := histBounds(histIndex(int64(v)))
	return hi - lo
}

func TestHistPercentilesMatchSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func() int64{
		"uniform":   func() int64 { return 100 + rng.Int63n(900) },
		"bimodal":   func() int64 { return []int64{150, 90000}[rng.Intn(2)] + rng.Int63n(50) },
		"heavytail": func() int64 { return int64(120 * math.Exp(rng.ExpFloat64()*1.5)) },
	}
	for name, draw := range shapes {
		var h hist
		samples := make([]int64, 200000)
		for i := range samples {
			samples[i] = draw()
			h.record(samples[i])
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		for _, p := range []float64{0.05, 0.5, 0.9, 0.99, 0.999} {
			got, used := h.percentile(p)
			if used != p {
				t.Errorf("%s: p%g unsupported with %d samples", name, 100*p, h.count)
			}
			want := exactPercentile(samples, p)
			if tol := bucketWidth(want) + 1; math.Abs(got-want) > tol {
				t.Errorf("%s: p%g = %.1f, exact %.1f, tolerance %.1f", name, 100*p, got, want, tol)
			}
		}
	}
}

func TestHistBucketsTileTheRange(t *testing.T) {
	prevHi := 0.0
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %g, previous ended at %g", i, lo, prevHi)
		}
		if i >= histSub && (hi-lo)/lo > 1.0/histSub {
			t.Fatalf("bucket %d is %.2f%% wide", i, 100*(hi-lo)/lo)
		}
		if got := histIndex(int64(lo)); got != i {
			t.Fatalf("histIndex(%g) = %d, want %d", lo, got, i)
		}
		if got := histIndex(int64(hi) - 1); got != i {
			t.Fatalf("histIndex(%g) = %d, want %d", hi-1, got, i)
		}
		prevHi = hi
	}
	if histIndex(math.MaxInt64) != histBuckets-1 || histIndex(-5) != 0 {
		t.Fatal("out-of-range values must clamp to the end buckets")
	}
}

// A percentile with fewer than ten samples beyond it does not repeat; the
// histogram must answer with the highest one that has them and say so.
func TestHistPercentileNeedsTenSamplesBeyond(t *testing.T) {
	var h hist
	for i := int64(1); i <= 100; i++ {
		h.record(i * 1000)
	}
	v, used := h.percentile(0.99)
	if used != 0.9 {
		t.Fatalf("100 samples support p90 at most, got p%g", 100*used)
	}
	if want := 90000.0; math.Abs(v-want) > bucketWidth(want) {
		t.Fatalf("p90 = %g, want about %g", v, want)
	}
	for i := 0; i < 900; i++ {
		h.record(500)
	}
	if _, used := h.percentile(0.99); used != 0.99 {
		t.Fatalf("1000 samples support p99, got p%g", 100*used)
	}
	var empty hist
	if v, used := empty.percentile(0.5); v != 0 || used != 0 {
		t.Fatalf("empty histogram answered %g at p%g", v, used)
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h hist
	if n := testing.AllocsPerRun(1000, func() { h.record(12345) }); n != 0 {
		t.Fatalf("record allocates %v times per call", n)
	}
}
