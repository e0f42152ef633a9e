//go:build exhaustive && !race

package rs

import "testing"

// TestDecodeAllUpToTwoSymbolErrors decodes every error pattern of at most
// two symbols of one RS(72, 64) codeword: 1 + 72*255 + C(72,2)*255^2 =
// 166,222,261 of them, about 3.5 CPU-minutes. Run it with
// go test -tags exhaustive -run TestDecodeAllUpToTwoSymbolErrors -v ./internal/rs/
func TestDecodeAllUpToTwoSymbolErrors(t *testing.T) {
	got := decodeSymbolErrors(t, 0)
	n := int64(Must(64, 8).N())
	if want := 1 + n*255 + n*(n-1)/2*255*255; !t.Failed() && got != want {
		t.Fatalf("decoded %d patterns, want %d", got, want)
	}
	t.Logf("decoded %d error patterns of at most two symbols over %d codeword symbols", got, n)
}
