package bch

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"chipkillpm/internal/gf"
)

// Kernel microbenchmarks at the paper-relevant shape: the 256 B VLEW code
// BCH(m=12, k=2048, t=22). The *BitSerial benchmarks measure the
// test-local reference implementations (reference_test.go) so one `go test
// -bench=Kernel` run (`make bench`) shows each kernel-vs-reference ratio on
// the host that ran it.

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
		c.encodeBitSerial(data)
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
	if !bytes.Equal(out, c.encodeDeltaBitSerial(deltas[:8], 0)) {
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
		c.encodeDeltaBitSerial(delta, 1024)
	}
}

func BenchmarkKernelSyndromes(b *testing.B) {
	c := paperCode()
	data := benchData(c)
	parity := c.Encode(data)
	data[5] ^= 0x10
	syn := make([]gf.Elem, 2*c.t)
	sc := c.getScratch()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.syndromesInto(syn, data, parity, sc)
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
		c.syndromesBitSerial(data, parity)
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
func BenchmarkKernelDecodeE6(b *testing.B)  { benchmarkDecode(b, 6) }
func BenchmarkKernelDecodeE7(b *testing.B)  { benchmarkDecode(b, 7) }
func BenchmarkKernelDecodeE8(b *testing.B)  { benchmarkDecode(b, 8) }
func BenchmarkKernelDecodeE22(b *testing.B) { benchmarkDecode(b, 22) }

// BenchmarkKernelDecodeBeyondT is the cost of rejecting a word with t+1
// errors, as a dying chip's VLEWs are rejected: every pre-drawn set must
// come back uncorrectable with the word untouched, and is then undone.
func BenchmarkKernelDecodeBeyondT(b *testing.B) {
	c := paperCode()
	data := benchData(c)
	parity := c.Encode(data)
	wantData := append([]byte(nil), data...)
	wantParity := append([]byte(nil), parity...)
	rng := rand.New(rand.NewSource(23))
	sets := make([][]int, 64)
	for i := range sets {
		sets[i] = rng.Perm(c.N())[:c.T()+1]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%len(sets)]
		c.flip(data, parity, set)
		if fixed, err := c.Decode(data, parity); !errors.Is(err, ErrUncorrectable) {
			b.Fatalf("set %d: %d flips decoded as (%d, %v)", i%len(sets), len(set), fixed, err)
		}
		c.flip(data, parity, set)
	}
	b.StopTimer()
	if !bytes.Equal(data, wantData) || !bytes.Equal(parity, wantParity) {
		b.Fatal("a rejected decode modified the word")
	}
}

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

// BenchmarkKernelRemainder times the first stage of every VLEW check, the
// 256-byte LFSR remainder, through the kernel New dispatches to (carry-less
// multiply where the CPU has it); BenchmarkKernelRemainderTable times the
// slicing-by-8 table kernel on the same data.
func BenchmarkKernelRemainder(b *testing.B) { benchmarkRemainder(b, paperCode().enc) }

func BenchmarkKernelRemainderTable(b *testing.B) {
	benchmarkRemainder(b, paperCode().buildEncTables(false))
}

func benchmarkRemainder(b *testing.B, e *encTables) {
	c := paperCode()
	data := benchData(c)
	state := make([]uint64, e.w)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.remainder(state, data)
	}
	b.StopTimer()
	got := make([]byte, c.ParityBytes())
	stateBytes(state, got)
	if want := c.encodeBitSerial(data); !bytes.Equal(got, want) {
		b.Fatalf("remainder %x, polynomial division %x", got, want)
	}
}
