//go:build !race

package rs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// decodeSymbolErrors injects error patterns of at most two symbols into one
// random RS(72, 64) codeword and requires DecodeLimitedAppend at the
// demand path's threshold of 2 to return every one of them to the codeword
// with one correction per bad symbol. Every pattern of weight 0 and 1 is
// tried, and every pair of positions; each pair takes all 255^2 magnitude
// pairs when pairMags is 0, else pairMags seeded random ones. The first
// position is dealt round-robin to parallel subtests. It returns the
// number of patterns decoded.
//
// With d = 9 every pattern of weight <= 2 is within the unique-decoding
// radius, so the full set (pairMags 0) shows the decoder accepts each
// one; DecodeAppend re-checks the syndromes after correcting, so any word
// it accepts is a codeword. Together: a block is accepted with at most
// two corrections exactly when its error has the syndrome of a pattern
// of at most two symbols. Not built under -race, which slows the decodes
// past any tier-1 budget.
func decodeSymbolErrors(t *testing.T, pairMags int) int64 {
	c := Must(64, 8)
	rng := rand.New(rand.NewSource(72))
	want := make([]byte, c.K())
	rng.Read(want)
	wantCheck := c.Encode(want)
	if corr, err := c.DecodeLimitedAppend(nil, want, wantCheck, 2); err != nil || len(corr) != 0 {
		t.Fatalf("clean codeword: %d corrections, err %v", len(corr), err)
	}
	patterns := atomic.Int64{}
	patterns.Add(1)
	const shards = 8
	t.Run("shards", func(t *testing.T) {
		for s := 0; s < shards; s++ {
			t.Run(fmt.Sprint(s), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(s)))
				data, check := bytes.Clone(want), bytes.Clone(wantCheck)
				var buf []Correction
				var count int64
				flip := func(p int, m byte) {
					if p < c.k {
						data[p] ^= m
					} else {
						check[p-c.k] ^= m
					}
				}
				// decode injects mi at i and, for j >= 0, mj at j.
				decode := func(i int, mi byte, j int, mj byte) {
					flip(i, mi)
					errs := 1
					if j >= 0 {
						flip(j, mj)
						errs = 2
					}
					corr, err := c.DecodeLimitedAppend(buf, data, check, 2)
					if err != nil || len(corr) != errs || !bytes.Equal(data, want) || !bytes.Equal(check, wantCheck) {
						t.Fatalf("error %#x at %d, %#x at %d: %d corrections, err %v, codeword restored %v",
							mi, i, mj, j, len(corr), err, bytes.Equal(data, want) && bytes.Equal(check, wantCheck))
					}
					buf = corr
					count++
				}
				for i := s; i < c.n; i += shards {
					for mi := 1; mi < 256; mi++ {
						decode(i, byte(mi), -1, 0)
					}
					for j := i + 1; j < c.n; j++ {
						if pairMags > 0 {
							for range pairMags {
								decode(i, byte(1+rng.Intn(255)), j, byte(1+rng.Intn(255)))
							}
							continue
						}
						for mi := 1; mi < 256; mi++ {
							for mj := 1; mj < 256; mj++ {
								decode(i, byte(mi), j, byte(mj))
							}
						}
					}
				}
				patterns.Add(count)
			})
		}
	})
	return patterns.Load()
}

// TestDecodeUpToTwoSymbolErrorsSampled is the tier-1 sample of the
// enumeration: every pattern of weight <= 1 and every position pair, with
// 128 seeded magnitude pairs each (345,529 patterns). The full set is
// TestDecodeAllUpToTwoSymbolErrors, built with -tags exhaustive.
func TestDecodeUpToTwoSymbolErrorsSampled(t *testing.T) {
	const pairMags = 128
	got := decodeSymbolErrors(t, pairMags)
	n := int64(Must(64, 8).N())
	if want := 1 + n*255 + n*(n-1)/2*pairMags; !t.Failed() && got != want {
		t.Fatalf("decoded %d patterns, want %d", got, want)
	}
}
