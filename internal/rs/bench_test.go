package rs

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// Kernel microbenchmarks at the paper shape: RS(72, 64), one 64 B data
// block plus 8 check bytes. The *PolyDiv/*Horner benchmarks measure the
// test-local references (diff_test.go) for the kernel-vs-reference ratio.

func benchCode() *Code { return Must(64, 8) }

func benchBlock() ([]byte, *Code) {
	c := benchCode()
	data := make([]byte, c.K())
	rand.New(rand.NewSource(1)).Read(data)
	return data, c
}

func BenchmarkKernelEncode(b *testing.B) {
	data, c := benchBlock()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(data)
	}
}

func BenchmarkKernelEncodePolyDiv(b *testing.B) {
	data, c := benchBlock()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.encodePolyDiv(data)
	}
}

func BenchmarkKernelCheckClean(b *testing.B) {
	data, c := benchBlock()
	check := c.Encode(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Check(data, check) {
			b.Fatal("clean block reported dirty")
		}
	}
}

func BenchmarkKernelSyndromesHorner(b *testing.B) {
	data, c := benchBlock()
	check := c.Encode(data)
	data[3] ^= 0xA5
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.syndromesHorner(data, check)
	}
}

func BenchmarkKernelDecodeClean(b *testing.B) {
	data, c := benchBlock()
	check := c.Encode(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeAppend(nil, data, check, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelDecodeErrors(b *testing.B) {
	data, c := benchBlock()
	check := c.Encode(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[5] ^= 0x3C
		data[40] ^= 0x81
		if corr, err := c.DecodeAppend(nil, data, check, nil); err != nil || len(corr) != 2 {
			b.Fatalf("corr=%d err=%v", len(corr), err)
		}
	}
}

func BenchmarkKernelDecodeSingleError(b *testing.B) {
	data, c := benchBlock()
	check := c.Encode(data)
	buf := make([]Correction, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[37] ^= 0x40
		corr, err := c.DecodeAppend(buf, data, check, nil)
		if err != nil || len(corr) != 1 {
			b.Fatalf("corr=%d err=%v", len(corr), err)
		}
	}
}

// BenchmarkKernelCorrectWord is BenchmarkKernelDecodeSingleError's problem
// — one drifted data symbol — through the lock-free reader's packed-word
// pair: the syndrome word, then the closed-form weight-1 corrector.
func BenchmarkKernelCorrectWord(b *testing.B) {
	data, c := benchBlock()
	w := binary.LittleEndian.Uint64(c.Encode(data))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[37] ^= 0x40
		syn := c.SyndromeWord(data, w)
		if pos, _, ok := c.CorrectWord(data, syn); !ok || pos != 37 {
			b.Fatalf("pos=%d ok=%v", pos, ok)
		}
	}
}

func BenchmarkKernelDecodeErasures(b *testing.B) {
	data, c := benchBlock()
	check := c.Encode(data)
	erasures := []int{8, 9, 10, 11, 12, 13, 14, 15} // one failed chip
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range erasures {
			data[p] = 0
		}
		if _, err := c.DecodeAppend(nil, data, check, erasures); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelErasureSolve is BenchmarkKernelDecodeErasures' problem —
// one failed chip, eight known positions — through the fixed-pattern solver.
func BenchmarkKernelErasureSolve(b *testing.B) {
	data, c := benchBlock()
	check := c.Encode(data)
	erasures := []int{8, 9, 10, 11, 12, 13, 14, 15}
	s, err := c.NewErasureSolver(erasures)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range erasures {
			data[p] = 0
		}
		s.Solve(data, check)
	}
}

// BenchmarkKernelErasureSolveWords is BenchmarkKernelErasureSolve's
// problem over one VLEW's 32 blocks through the gather-free word solve,
// reported per block.
func BenchmarkKernelErasureSolveWords(b *testing.B) {
	c := benchCode()
	s, err := c.NewErasureSolver([]int{8, 9, 10, 11, 12, 13, 14, 15})
	if err != nil {
		b.Fatal(err)
	}
	const blocks = 32
	src := make([][]byte, c.N()/8)
	for g := range src {
		src[g] = make([]byte, 8*blocks)
		rand.New(rand.NewSource(int64(g))).Read(src[g])
	}
	dst := make([]byte, 8*blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SolveWords(dst, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
}

// BenchmarkKernelNewErasureSolver is the one-off table build per failed chip.
func BenchmarkKernelNewErasureSolver(b *testing.B) {
	c := benchCode()
	erasures := []int{8, 9, 10, 11, 12, 13, 14, 15}
	for i := 0; i < b.N; i++ {
		if _, err := c.NewErasureSolver(erasures); err != nil {
			b.Fatal(err)
		}
	}
}
