//go:build !race

package bch

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestDecodeExhaustiveUpToTwoErrors decodes every single-bit (2312) and
// every double-bit (2,671,516) error pattern of one random codeword of
// the paper's VLEW code, BCH(12, 2048, 22): each must come back in place
// as the codeword, with fixed equal to the pattern's weight. This is the
// error mix a scrub meets most often, and the patterns are few enough to
// try them all rather than sample them. The first error position is
// dealt round-robin to parallel subtests. Not built under -race: the
// race detector slows the 2.7 million decodes past any tier-1 budget.
func TestDecodeExhaustiveUpToTwoErrors(t *testing.T) {
	code := Must(12, 2048, 22)
	rng := rand.New(rand.NewSource(36))
	want := make([]byte, code.DataBytes())
	rng.Read(want)
	wantParity := code.Encode(want)
	n := code.N()
	var patterns atomic.Int64
	const shards = 8
	t.Run("shards", func(t *testing.T) {
		for s := 0; s < shards; s++ {
			t.Run(fmt.Sprint(s), func(t *testing.T) {
				t.Parallel()
				data, parity := bytes.Clone(want), bytes.Clone(wantParity)
				check := func(pos ...int) {
					code.flip(data, parity, pos)
					fixed, err := code.Decode(data, parity)
					if err != nil || fixed != len(pos) || !bytes.Equal(data, want) || !bytes.Equal(parity, wantParity) {
						t.Fatalf("error bits %v: fixed %d, err %v, codeword restored %v",
							pos, fixed, err, bytes.Equal(data, want) && bytes.Equal(parity, wantParity))
					}
				}
				var count int64
				for i := s; i < n; i += shards {
					check(i)
					for j := i + 1; j < n; j++ {
						check(i, j)
					}
					count += int64(n - i)
				}
				patterns.Add(count)
			})
		}
	})
	if want := int64(n + n*(n-1)/2); !t.Failed() && patterns.Load() != want {
		t.Fatalf("decoded %d patterns, want %d", patterns.Load(), want)
	}
	t.Logf("decoded %d error patterns of weight 1 and 2 over %d codeword bits", patterns.Load(), n)
}
