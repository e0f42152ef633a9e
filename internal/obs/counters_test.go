package obs

import (
	"sync"
	"testing"
	"unsafe"
)

// TestCountersExactUnderConcurrency pins the set's one promise: stripes
// decide speed, never counts. 16 goroutines add to two slots at once and
// both fold to the exact totals.
func TestCountersExactUnderConcurrency(t *testing.T) {
	const g, m = 16, 20000
	for _, stripes := range []int{1, 4, Stripes} {
		c := NewCounters(3, stripes)
		var wg sync.WaitGroup
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < m; j++ {
					c.Add(0, 1)
					c.Add(2, int64(i))
				}
			}(i)
		}
		wg.Wait()
		if got := c.Load(0); got != g*m {
			t.Fatalf("%d stripes: slot 0 = %d, want %d", stripes, got, g*m)
		}
		if got, want := c.Load(2), int64(m*g*(g-1)/2); got != want {
			t.Fatalf("%d stripes: slot 2 = %d, want %d", stripes, got, want)
		}
		if got := c.Load(1); got != 0 {
			t.Fatalf("%d stripes: untouched slot 1 = %d", stripes, got)
		}
	}
}

// TestCountersResetOneSlot pins that Reset clears its own slot on every
// stripe and leaves the others alone.
func TestCountersResetOneSlot(t *testing.T) {
	const slots = 10
	c := NewCounters(slots, Stripes)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < slots; s++ {
				c.Add(s, int64(s+1))
			}
		}()
	}
	wg.Wait()
	c.Reset(3)
	for s := 0; s < slots; s++ {
		want := int64(8 * (s + 1))
		if s == 3 {
			want = 0
		}
		if got := c.Load(s); got != want {
			t.Fatalf("slot %d = %d after Reset(3), want %d", s, got, want)
		}
	}
}

// TestCountersLayout pins the cache-line layout: every stripe is whole
// lines long and the set starts on a line boundary (NewCounters relies
// on the allocator's size classes for that), so two stripes never share
// a line.
func TestCountersLayout(t *testing.T) {
	for _, stripes := range []int{1, 16, Stripes} {
		for slots := 1; slots <= 600; slots += 7 {
			c := NewCounters(slots, stripes)
			if p := uintptr(unsafe.Pointer(&c.v[0])); p%64 != 0 {
				t.Fatalf("%d slots x %d stripes: set starts at %#x, not on a cache line", slots, stripes, p)
			}
			if c.stride < slots || c.stride%lineWords != 0 || len(c.v) != stripes*c.stride {
				t.Fatalf("%d slots x %d stripes: stride %d words, %d words in all", slots, stripes, c.stride, len(c.v))
			}
		}
	}
}

func TestNewCountersRejectsBadShapes(t *testing.T) {
	for _, tc := range []struct{ slots, stripes int }{{0, 1}, {1, 0}, {1, 3}, {1, 2 * Stripes}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCounters(%d, %d) did not panic", tc.slots, tc.stripes)
				}
			}()
			NewCounters(tc.slots, tc.stripes)
		}()
	}
}

// TestStripeGranulesDistinct pins the premise Stripe rests on for the
// running Go version: goroutines alive at the same time sit in distinct
// 2 KiB stack granules.
func TestStripeGranulesDistinct(t *testing.T) {
	const n = 8
	var ready, release sync.WaitGroup
	ready.Add(n)
	release.Add(1)
	granules := make([]uint64, n)
	var done sync.WaitGroup
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			granules[i] = granule()
			ready.Done()
			release.Wait() // stay alive until every goroutine has recorded
		}(i)
	}
	ready.Wait()
	release.Done()
	done.Wait()
	seen := map[uint64]int{}
	for i, g := range granules {
		if j, ok := seen[g]; ok {
			t.Fatalf("goroutines %d and %d share stack granule %#x", j, i, g)
		}
		seen[g] = i
	}
}
