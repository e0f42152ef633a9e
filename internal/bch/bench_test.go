package bch

import (
	"bytes"
	"math/rand"
	"testing"
)

// Kernel microbenchmarks at the paper-relevant shape: the 256 B VLEW code
// BCH(m=12, k=2048, t=22). The *BitSerial benchmarks measure the retained
// reference implementations so one `go test -bench=Kernel` run (`make
// bench`) shows each fast-vs-reference ratio on the host that ran it.

func paperCode() *Code { return Must(12, 2048, 22) }

func benchData(c *Code) []byte {
	data := make([]byte, c.DataBytes())
	rand.New(rand.NewSource(1)).Read(data)
	return data
}

func BenchmarkKernelEncode(b *testing.B) {
	c := paperCode()
	data := benchData(c)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(data)
	}
}

func BenchmarkKernelEncodeBitSerial(b *testing.B) {
	c := paperCode()
	data := benchData(c)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncodeBitSerial(data)
	}
}

func BenchmarkKernelEncodeDelta(b *testing.B) {
	c := paperCode()
	delta := make([]byte, 8) // one chip-access worth of changed bytes
	rand.New(rand.NewSource(2)).Read(delta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncodeDelta(delta, 1024)
	}
}

func BenchmarkKernelEncodeDeltaInto(b *testing.B) {
	c := paperCode()
	delta := make([]byte, 8)
	rand.New(rand.NewSource(2)).Read(delta)
	out := make([]byte, c.ParityBytes())
	c.EncodeDeltaInto(out, delta, 0) // build tables outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncodeDeltaInto(out, delta, 1024)
	}
}

// BenchmarkKernelEncodeDeltaIntoScattered is the demand-write shape as the
// write path sees it: 8-byte deltas at pre-drawn random 8-aligned offsets,
// so successive calls touch different table positions and the figure
// includes the cache misses a fixed offset hides.
func BenchmarkKernelEncodeDeltaIntoScattered(b *testing.B) {
	c := paperCode()
	const draws = 4096
	rng := rand.New(rand.NewSource(3))
	deltas := make([]byte, 8*draws)
	rng.Read(deltas)
	offs := make([]int, draws)
	for i := range offs {
		offs[i] = 64 * rng.Intn(c.DataBytes()/8)
	}
	out := make([]byte, c.ParityBytes())
	c.EncodeDeltaInto(out, deltas[:8], 0)
	if !bytes.Equal(out, c.EncodeDeltaBitSerial(deltas[:8], 0)) {
		b.Fatal("EncodeDeltaInto disagrees with the bit-serial oracle")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % draws
		c.EncodeDeltaInto(out, deltas[8*j:8*j+8], offs[j])
	}
}

func BenchmarkKernelEncodeDeltaBitSerial(b *testing.B) {
	c := paperCode()
	delta := make([]byte, 8)
	rand.New(rand.NewSource(2)).Read(delta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncodeDeltaBitSerial(delta, 1024)
	}
}

func BenchmarkKernelSyndromes(b *testing.B) {
	c := paperCode()
	data := benchData(c)
	parity := c.Encode(data)
	data[5] ^= 0x10
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Syndromes(data, parity)
	}
}

func BenchmarkKernelSyndromesBitSerial(b *testing.B) {
	c := paperCode()
	data := benchData(c)
	parity := c.Encode(data)
	data[5] ^= 0x10
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SyndromesBitSerial(data, parity)
	}
}

func BenchmarkKernelCheckCleanClean(b *testing.B) {
	c := paperCode()
	data := benchData(c)
	parity := c.Encode(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.CheckClean(data, parity) {
			b.Fatal("clean word reported dirty")
		}
	}
}

// benchmarkDecode measures a full decode correcting e errors, cycling
// through pre-drawn error sets: above the closed forms the cost depends on
// where the scanned roots sit, so one draw would make the figure hostage
// to its first root.
func benchmarkDecode(b *testing.B, e int) {
	c := paperCode()
	data := benchData(c)
	parity := c.Encode(data)
	rng := rand.New(rand.NewSource(int64(e)))
	sets := make([][]int, 64)
	for i := range sets {
		sets[i] = rng.Perm(c.N())[:e]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.flip(data, parity, sets[i%len(sets)])
		fixed, err := c.Decode(data, parity)
		if err != nil || fixed != e {
			b.Fatalf("decode: fixed=%d err=%v", fixed, err)
		}
	}
}

func BenchmarkKernelDecodeE1(b *testing.B)  { benchmarkDecode(b, 1) }
func BenchmarkKernelDecodeE2(b *testing.B)  { benchmarkDecode(b, 2) }
func BenchmarkKernelDecodeE3(b *testing.B)  { benchmarkDecode(b, 3) }
func BenchmarkKernelDecodeE4(b *testing.B)  { benchmarkDecode(b, 4) }
func BenchmarkKernelDecodeE5(b *testing.B)  { benchmarkDecode(b, 5) }
func BenchmarkKernelDecodeE8(b *testing.B)  { benchmarkDecode(b, 8) }
func BenchmarkKernelDecodeE22(b *testing.B) { benchmarkDecode(b, 22) }

// BenchmarkKernelDecodeBootMix decodes the error mix a boot scrub sees:
// 512 words with every codeword bit flipped independently at RBER 1e-3
// (mean 2.3 flips per 2312-bit word; about one word in ten is clean and
// one in twelve needs the scan). Each iteration copies the next corrupted
// word into one buffer pair, as the scrub reads a VLEW into its row
// buffers, and decodes it there.
func BenchmarkKernelDecodeBootMix(b *testing.B) {
	const words, rber = 512, 1e-3
	c := paperCode()
	rng := rand.New(rand.NewSource(1e3))
	type word struct {
		data, parity []byte
		flips        int
	}
	mix := make([]word, words)
	for i := range mix {
		w := word{data: make([]byte, c.DataBytes())}
		rng.Read(w.data)
		w.parity = c.Encode(w.data)
		for p := 0; p < c.N(); p++ {
			if rng.Float64() < rber {
				c.flip(w.data, w.parity, []int{p})
				w.flips++
			}
		}
		mix[i] = w
	}
	data := make([]byte, c.DataBytes())
	parity := make([]byte, c.ParityBytes())
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &mix[i%words]
		copy(data, w.data)
		copy(parity, w.parity)
		fixed, err := c.Decode(data, parity)
		if err != nil || fixed != w.flips {
			b.Fatalf("word %d: %d flips decoded as (%d, %v)", i%words, w.flips, fixed, err)
		}
	}
}
