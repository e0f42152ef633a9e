package rs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Tests for the packed-word entry points the engine's lock-free reader
// uses: SyndromeWord must agree with Check, and CorrectWord must accept
// exactly the words the general decoder fixes with one correction, with
// the same position and magnitude, and leave data alone otherwise.

// wordCode is the only shape the packed-word entry points support: the
// paper's RS(72, 64).
var wordCode = Must(64, 8)

func packWord(check []byte) uint64 { return binary.LittleEndian.Uint64(check) }

// corrupt XORs mag into public position p of data||w (data byte p, or
// check byte p-K packed into w) and returns the new check word.
func corrupt(data []byte, w uint64, p int, mag byte) uint64 {
	if p < len(data) {
		data[p] ^= mag
		return w
	}
	return w ^ uint64(mag)<<(8*uint(p-len(data)))
}

// checkWordAgainstDecode cross-checks SyndromeWord and CorrectWord on data
// with packed check word w against DecodeLimitedAppend at thresholds 1 and
// 2 and against the unlimited DecodeAppend, and reports whether
// CorrectWord accepted. data is not modified.
func checkWordAgainstDecode(t *testing.T, data []byte, w uint64) bool {
	t.Helper()
	c := wordCode
	var check [8]byte
	binary.LittleEndian.PutUint64(check[:], w)
	syn := c.SyndromeWord(data, w)
	if (syn == 0) != c.Check(data, check[:]) {
		t.Fatalf("SyndromeWord %#x disagrees with Check on data %x check %x", syn, data, check)
	}
	if syn == 0 {
		return false
	}
	got := append([]byte(nil), data...)
	pos, mag, ok := c.CorrectWord(got, syn)
	if !ok && !bytes.Equal(got, data) {
		t.Fatalf("CorrectWord declined but modified data (syn %#x)", syn)
	}
	oracles := []struct {
		name   string
		decode func(d, ck []byte) ([]Correction, error)
	}{
		{"DecodeLimitedAppend(1)", func(d, ck []byte) ([]Correction, error) { return c.DecodeLimitedAppend(nil, d, ck, 1) }},
		{"DecodeLimitedAppend(2)", func(d, ck []byte) ([]Correction, error) { return c.DecodeLimitedAppend(nil, d, ck, 2) }},
		{"DecodeAppend", func(d, ck []byte) ([]Correction, error) { return c.DecodeAppend(nil, d, ck, nil) }},
	}
	for _, o := range oracles {
		d := append([]byte(nil), data...)
		ck := check
		corr, err := o.decode(d, ck[:])
		one := err == nil && len(corr) == 1
		if ok != one {
			t.Fatalf("syn %#x: CorrectWord ok=%v (pos %d mag %#x) but %s returned %d corrections, err %v",
				syn, ok, pos, mag, o.name, len(corr), err)
		}
		if !ok {
			continue
		}
		if corr[0].Pos != pos || corr[0].Old^corr[0].New != mag {
			t.Fatalf("syn %#x: CorrectWord fixed pos %d by %#x, %s fixed %+v", syn, pos, mag, o.name, corr[0])
		}
		wantCheck := check
		if pos >= c.K() {
			wantCheck[pos-c.K()] ^= mag
		}
		if !bytes.Equal(d, got) || ck != wantCheck {
			t.Fatalf("syn %#x: corrected bytes differ from %s at pos %d", syn, o.name, pos)
		}
	}
	return ok
}

func TestCorrectWordMatchesDecode(t *testing.T) {
	c := wordCode
	rng := rand.New(rand.NewSource(21))
	clean := make([]byte, c.K())
	rng.Read(clean)
	w0 := packWord(c.Encode(clean))
	data := make([]byte, c.K())

	// Every weight-1 pattern: each of the 72 positions, each magnitude.
	for p := 0; p < c.N(); p++ {
		for m := 1; m < 256; m++ {
			copy(data, clean)
			w := corrupt(data, w0, p, byte(m))
			if !checkWordAgainstDecode(t, data, w) {
				t.Fatalf("weight-1 pattern at pos %d, magnitude %#x declined", p, m)
			}
		}
	}

	// Random weight 2..8 patterns. Up to weight 7 no other codeword lies
	// within distance 1, so the corrector must decline; at weight 8 it
	// must merely agree with the decoder.
	for trial := 0; trial < 20000; trial++ {
		rng.Read(data)
		w := packWord(c.Encode(data))
		weight := 2 + rng.Intn(7)
		for _, p := range rng.Perm(c.N())[:weight] {
			w = corrupt(data, w, p, byte(1+rng.Intn(255)))
		}
		if checkWordAgainstDecode(t, data, w) && weight < 8 {
			t.Fatalf("trial %d: weight-%d pattern accepted as one symbol", trial, weight)
		}
	}

	// Random nonzero remainders: data against an arbitrary check word.
	for trial := 0; trial < 20000; trial++ {
		rng.Read(data)
		checkWordAgainstDecode(t, data, rng.Uint64())
	}
}

// FuzzCorrectWord cross-checks the packed-word corrector against the
// general decoders on encode(data) with up to eight (position, magnitude)
// symbol errors taken pairwise from errs, plus noise XORed into the check
// word.
func FuzzCorrectWord(f *testing.F) {
	f.Add([]byte("one data symbol"), []byte{37, 0x40}, uint64(0))
	f.Add([]byte("one check symbol"), []byte{69, 0x81}, uint64(0))
	f.Add([]byte("two symbols"), []byte{3, 0x11, 50, 0x22}, uint64(0))
	f.Add([]byte("noise only"), []byte{}, uint64(0x0123456789abcdef))
	f.Add([]byte{}, []byte{}, uint64(0))

	f.Fuzz(func(t *testing.T, data, errs []byte, noise uint64) {
		c := wordCode
		buf := make([]byte, c.K())
		copy(buf, data)
		w := packWord(c.Encode(buf)) ^ noise
		for i := 0; i+1 < len(errs) && i < 16; i += 2 {
			w = corrupt(buf, w, int(errs[i])%c.N(), errs[i+1])
		}
		checkWordAgainstDecode(t, buf, w)
	})
}

// TestWordConcurrent shares one Code between eight goroutines running the
// packed-word check and corrector beside the pooled general decoder — the
// mix every concurrent engine reader and locked controller issues against
// its codes. Run under -race by `make race`.
func TestWordConcurrent(t *testing.T) {
	c := Must(64, 8)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			data := make([]byte, c.K())
			want := make([]byte, c.K())
			for i := 0; i < 500; i++ {
				rng.Read(want)
				check := c.Encode(want)
				w := packWord(check)
				copy(data, want)
				p := rng.Intn(c.N())
				bad := corrupt(data, w, p, byte(1+rng.Intn(255)))
				syn := c.SyndromeWord(data, bad)
				if pos, _, ok := c.CorrectWord(data, syn); !ok || pos != p || !bytes.Equal(data, want) {
					errCh <- fmt.Errorf("goroutine %d: weight-1 error at %d not corrected (ok=%v pos=%d)", g, p, ok, pos)
					return
				}
				copy(data, want)
				data[rng.Intn(c.K())] ^= 0x5a
				check[rng.Intn(c.R())] ^= 0xa5
				if corr, err := c.DecodeAppend(nil, data, check, nil); err != nil || len(corr) != 2 || !bytes.Equal(data, want) {
					errCh <- fmt.Errorf("goroutine %d: two-symbol decode: %d corrections, err %v", g, len(corr), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
