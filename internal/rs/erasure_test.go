package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// chipErasures lists the eight symbol positions of chip ci in the paper's
// layout: data chips 0..7 hold data bytes 8ci..8ci+7, chip 8 the check
// bytes.
func chipErasures(ci int) []int {
	pos := make([]int, 8)
	for i := range pos {
		pos[i] = ci*8 + i
	}
	return pos
}

// solveBoth runs the solver and the general decoder on copies of the same
// damaged word and requires both to restore want exactly.
func solveBoth(t *testing.T, code *Code, s *ErasureSolver, erasures []int, data, check, wantData, wantCheck []byte) {
	t.Helper()
	d1, c1 := append([]byte(nil), data...), append([]byte(nil), check...)
	d2, c2 := append([]byte(nil), data...), append([]byte(nil), check...)
	s.Solve(d1, c1)
	if _, err := code.DecodeAppend(nil, d2, c2, erasures); err != nil {
		t.Fatalf("erasures %v: DecodeAppend failed: %v", erasures, err)
	}
	if !bytes.Equal(d1, d2) || !bytes.Equal(c1, c2) {
		t.Fatalf("erasures %v: solver and DecodeAppend disagree\nsolver %x %x\ndecode %x %x", erasures, d1, c1, d2, c2)
	}
	if !bytes.Equal(d1, wantData) || !bytes.Equal(c1, wantCheck) {
		t.Fatalf("erasures %v: word not restored", erasures)
	}
}

// scribble overwrites the erased symbols with rng bytes (sometimes the
// correct value, sometimes zero — what a repaired chip reads as).
func scribble(rng *rand.Rand, code *Code, erasures []int, data, check []byte) {
	zero := rng.Intn(4) == 0
	for _, p := range erasures {
		v := byte(rng.Intn(256))
		if zero {
			v = 0
		}
		if p < code.K() {
			data[p] = v
		} else {
			check[p-code.K()] = v
		}
	}
}

// TestErasureSolverMatchesDecode is the differential test against the
// general errors-and-erasures decoder: all nine chip positions of
// RS(72,64), random words, plus random 8-subsets and other code shapes.
func TestErasureSolverMatchesDecode(t *testing.T) {
	code := Must(64, 8)
	rng := rand.New(rand.NewSource(13))
	data := make([]byte, code.K())
	for ci := 0; ci <= 8; ci++ {
		erasures := chipErasures(ci)
		s, err := code.NewErasureSolver(erasures)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			rng.Read(data)
			if trial == 0 {
				for i := range data {
					data[i] = 0 // the all-zero codeword
				}
			}
			check := code.Encode(data)
			d, c := append([]byte(nil), data...), append([]byte(nil), check...)
			scribble(rng, code, erasures, d, c)
			solveBoth(t, code, s, erasures, d, c, data, check)
		}
	}
	for _, p := range []struct{ k, r int }{{64, 8}, {32, 4}, {16, 2}, {100, 8}, {1, 1}, {5, 3}} {
		code := Must(p.k, p.r)
		data := make([]byte, code.K())
		for trial := 0; trial < 50; trial++ {
			erasures := rng.Perm(code.N())[:code.R()]
			s, err := code.NewErasureSolver(erasures)
			if err != nil {
				t.Fatal(err)
			}
			rng.Read(data)
			check := code.Encode(data)
			d, c := append([]byte(nil), data...), append([]byte(nil), check...)
			scribble(rng, code, erasures, d, c)
			solveBoth(t, code, s, erasures, d, c, data, check)
		}
	}
}

// The solver only exists for exactly r distinct in-range positions: fewer
// would leave detection capability it silently discards, more is unsolvable.
func TestErasureSolverRejectsBadSets(t *testing.T) {
	code := Must(64, 8)
	for name, pos := range map[string][]int{
		"empty":        nil,
		"seven":        {0, 1, 2, 3, 4, 5, 6},
		"nine":         {0, 1, 2, 3, 4, 5, 6, 7, 8},
		"duplicate":    {0, 1, 2, 3, 4, 5, 6, 6},
		"negative":     {-1, 1, 2, 3, 4, 5, 6, 7},
		"out of range": {0, 1, 2, 3, 4, 5, 6, 72},
	} {
		if _, err := code.NewErasureSolver(pos); err == nil {
			t.Errorf("%s erasure set accepted", name)
		}
	}
	if _, err := New(64, 12); err == nil {
		t.Error("r=12 code (no packed LFSR) accepted")
	}
}

func TestErasureSolveDoesNotAllocate(t *testing.T) {
	code := Must(64, 8)
	s, err := code.NewErasureSolver(chipErasures(3))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, code.K())
	rand.New(rand.NewSource(1)).Read(data)
	check := code.Encode(data)
	if n := testing.AllocsPerRun(100, func() { s.Solve(data, check) }); n != 0 {
		t.Errorf("Solve allocates %.0f times per block", n)
	}
}

// FuzzErasureSolver holds the solver to the general decoder on fuzzer-
// chosen words: sel picks one of the nine chips, or (sel%10 == 9) a
// seed-drawn 8-subset of the 72 positions.
func FuzzErasureSolver(f *testing.F) {
	f.Add([]byte("sixty-four bytes of block data"), byte(0), int64(1))
	f.Add(bytes.Repeat([]byte{0x5a}, 64), byte(8), int64(2))
	f.Add([]byte{}, byte(9), int64(3))
	f.Add(bytes.Repeat([]byte{0xff}, 70), byte(5), int64(4))
	f.Add([]byte("chipkill"), byte(19), int64(5))

	f.Fuzz(func(t *testing.T, data []byte, sel byte, seed int64) {
		code := fuzzCode
		buf := make([]byte, code.K())
		copy(buf, data)
		check := code.Encode(buf)
		rng := rand.New(rand.NewSource(seed))
		erasures := rng.Perm(code.N())[:code.R()]
		if ci := int(sel % 10); ci < 9 {
			erasures = chipErasures(ci)
		}
		s, err := code.NewErasureSolver(erasures)
		if err != nil {
			t.Fatalf("erasures %v: %v", erasures, err)
		}
		d, c := append([]byte(nil), buf...), append([]byte(nil), check...)
		scribble(rng, code, erasures, d, c)
		solveBoth(t, code, s, erasures, d, c, buf, check)
		if ci := int(sel % 10); ci < 9 {
			// The word solve sees the fuzzed codeword through the chips'
			// groups, the scribbled chip included, then a second,
			// seed-drawn codeword at the next 8-byte stride.
			d2 := make([]byte, code.K())
			rng.Read(d2)
			c2 := code.Encode(d2)
			src := chipGroups(append(d, c...), append(d2, c2...))
			rng.Read(src[ci][8:])
			want := chipGroups(append(buf, check...), append(d2, c2...))[ci]
			got := make([]byte, 16)
			s.SolveWords(got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("chip %d: SolveWords %x, Solve %x", ci, got, want)
			}
		}
	})
}

// chipGroups splits codewords (data||check, 72 bytes each) into the nine
// chips' 8-byte groups, concatenated per chip in codeword order.
func chipGroups(words ...[]byte) [][]byte {
	src := make([][]byte, 9)
	for _, w := range words {
		for g := range src {
			src[g] = append(src[g], w[8*g:8*g+8]...)
		}
	}
	return src
}

// TestSolveWordsMatchesSolve holds the gather-free word solve to Solve
// for every chip of RS(72,64) over a VLEW's worth of blocks, with the
// erased chip's group absent (nil), and pins that it is refused for an
// erasure set that is not one whole group.
func TestSolveWordsMatchesSolve(t *testing.T) {
	code := Must(64, 8)
	rng := rand.New(rand.NewSource(17))
	const blocks = 32
	for ci := 0; ci <= 8; ci++ {
		s, err := code.NewErasureSolver(chipErasures(ci))
		if err != nil {
			t.Fatal(err)
		}
		words := make([][]byte, blocks)
		for b := range words {
			data := make([]byte, code.K())
			if b != blocks-1 { // the last block stays the all-zero codeword
				rng.Read(data)
			}
			words[b] = append(data, code.Encode(data)...)
		}
		src := chipGroups(words...)
		want := src[ci]
		src[ci] = nil
		got := make([]byte, 8*blocks)
		s.SolveWords(got, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("chip %d: SolveWords disagrees with the encoded codewords", ci)
		}
		if n := testing.AllocsPerRun(20, func() { s.SolveWords(got, src) }); n != 0 {
			t.Errorf("chip %d: SolveWords allocates %.0f times per call", ci, n)
		}
	}
	for name, pos := range map[string][]int{
		"scattered": {0, 9, 18, 27, 36, 45, 54, 63},
		"unaligned": {4, 5, 6, 7, 8, 9, 10, 11},
		"permuted":  {9, 8, 10, 11, 12, 13, 14, 15},
	} {
		s, err := code.NewErasureSolver(pos)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s erasure set: SolveWords did not panic", name)
				}
			}()
			s.SolveWords(make([]byte, 8), make([][]byte, 9))
		}()
	}
}
