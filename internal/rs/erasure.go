package rs

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// ErasureSolver reconstructs one fixed set of exactly r erased positions —
// a whole failed chip. With r erasures the code's redundancy is fully
// consumed, so decoding is pure linear algebra: the errata e live on the
// erased positions and must cancel the word's remainder, e(x) mod g = rem,
// and because d = r+1 that map is invertible. The solver inverts it once
// and stores rem -> e as one 256-entry table per remainder byte; a block
// then costs one LFSR pass plus r lookups instead of the general decoder's
// locator/Chien/Forney pipeline. At r erasures there is nothing left to
// detect (DecodeAppend accepts every such word too), so Solve cannot fail.
type ErasureSolver struct {
	c     *Code
	pos   []int          // erased positions, public numbering
	group int            // pos is symbols 8*group .. 8*group+7 in order (SolveWords); -1 otherwise
	tab   [8][256]uint64 // tab[i][v]: errata (byte j = pos[j]) for remainder byte i = v
}

// NewErasureSolver builds the solver for the given erasure set, which must
// be exactly R() distinct in-range positions (data byte p for p < K, check
// byte p-K otherwise).
func (c *Code) NewErasureSolver(positions []int) (*ErasureSolver, error) {
	if len(positions) != c.r {
		return nil, fmt.Errorf("rs: erasure solver needs exactly r = %d positions, got %d", c.r, len(positions))
	}
	// Errata bit b (bit b%8 of the symbol at positions[b/8]) leaves
	// remainder rem[b]. Gauss-Jordan over GF(2) on the pairs (rem[b], e[b])
	// keeps "e[b] leaves rem[b]" true and ends with rem[b] = 1<<b, so e[b]
	// is then the errata that cancel remainder bit b.
	var rem, e [64]uint64
	unit := make([]byte, c.k)
	for j, p := range positions {
		if p < 0 || p >= c.n {
			return nil, fmt.Errorf("rs: erasure position %d out of range [0,%d)", p, c.n)
		}
		for t := uint(0); t < 8; t++ {
			b := 8*uint(j) + t
			e[b] = 1 << b
			if p >= c.k {
				rem[b] = 1 << (8*uint(p-c.k) + t) // a check symbol is already reduced
				continue
			}
			unit[p] = 1 << t
			rem[b] = c.enc.remainder(unit)
			unit[p] = 0
		}
	}
	for b := 0; b < 8*c.r; b++ {
		piv := b
		for piv < 8*c.r && rem[piv]>>uint(b)&1 == 0 {
			piv++
		}
		if piv == 8*c.r { // distinct positions cannot be singular: the code is MDS
			return nil, fmt.Errorf("rs: erasure positions %v are not distinct", positions)
		}
		rem[b], rem[piv], e[b], e[piv] = rem[piv], rem[b], e[piv], e[b]
		for q := 0; q < 8*c.r; q++ {
			if q != b && rem[q]>>uint(b)&1 != 0 {
				rem[q] ^= rem[b]
				e[q] ^= e[b]
			}
		}
	}
	s := &ErasureSolver{c: c, pos: append([]int(nil), positions...), group: -1}
	if c.enc.sliced && c.k%8 == 0 && positions[0]%8 == 0 {
		s.group = positions[0] / 8
		for j, p := range positions {
			if p != positions[0]+j {
				s.group = -1
			}
		}
	}
	for i := 0; i < c.r; i++ {
		for v := 1; v < 256; v++ {
			low := bits.TrailingZeros8(uint8(v))
			s.tab[i][v] = s.tab[i][v&(v-1)] ^ e[8*i+low]
		}
	}
	return s, nil
}

// Solve overwrites the erased positions of data||check with the unique
// values that make the word a codeword; whatever they held is ignored and
// every other symbol is trusted, exactly as an r-erasure DecodeAppend does.
//
//chipkill:noalloc
func (s *ErasureSolver) Solve(data, check []byte) {
	c := s.c
	if len(data) != c.k || len(check) != c.r {
		panic("rs: ErasureSolver.Solve size mismatch")
	}
	rem := c.enc.remainder(data)
	for i, b := range check {
		rem ^= uint64(b) << (8 * uint(i))
	}
	e := s.errata(rem)
	for j, p := range s.pos {
		if p < c.k {
			data[p] ^= byte(e >> (8 * uint(j)))
		} else {
			check[p-c.k] ^= byte(e >> (8 * uint(j)))
		}
	}
}

// SolveWords is Solve for a solver whose erasures are one whole 8-symbol
// group, positions 8g .. 8g+7 in that order (one chip of the paper's
// rank), run over many codewords without assembling any of them. It needs
// the packed LFSR of an r = 8 code whose K is a multiple of 8; other
// solvers panic. Group g is the
// data bytes 8g .. 8g+7 for g < K/8 and the check bytes for g = K/8, so
// src has N/8 entries: src[g] holds group g's symbols of consecutive
// codewords, eight bytes per codeword, exactly as a chip stores its slices
// of consecutive blocks. dst receives the erased group's symbols of each
// codeword; src[erased group] is never read. Each codeword costs the
// slicing-by-8 remainder, which consumes one group per step, fed straight
// from the little-endian words of src, plus the solver's eight lookups.
//
//chipkill:noalloc
func (s *ErasureSolver) SolveWords(dst []byte, src [][]byte) {
	c := s.c
	if s.group < 0 {
		panic("rs: SolveWords needs one whole 8-symbol group erased")
	}
	checkGroup := c.k / 8
	if len(src) != checkGroup+1 || len(dst)%8 != 0 {
		panic("rs: SolveWords size mismatch")
	}
	for g, b := range src {
		if g != s.group && len(b) < len(dst) {
			panic("rs: SolveWords size mismatch")
		}
	}
	e := c.enc
	for o := 0; o < len(dst); o += 8 {
		var rem uint64
		for g := checkGroup - 1; g >= 0; g-- {
			t := rem
			if g != s.group {
				t ^= binary.LittleEndian.Uint64(src[g][o:])
			}
			rem = e.fold(t)
		}
		if s.group != checkGroup {
			rem ^= binary.LittleEndian.Uint64(src[checkGroup][o:])
		}
		binary.LittleEndian.PutUint64(dst[o:], s.errata(rem))
	}
}

// errata maps a remainder to the erased symbols that cancel it, byte j
// for position pos[j]. Remainder bytes at and above r are zero and look
// up zero.
func (s *ErasureSolver) errata(rem uint64) uint64 {
	return s.tab[0][byte(rem)] ^ s.tab[1][byte(rem>>8)] ^
		s.tab[2][byte(rem>>16)] ^ s.tab[3][byte(rem>>24)] ^
		s.tab[4][byte(rem>>32)] ^ s.tab[5][byte(rem>>40)] ^
		s.tab[6][byte(rem>>48)] ^ s.tab[7][byte(rem>>56)]
}
