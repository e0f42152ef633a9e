package rs

import (
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
	c   *Code
	pos []int          // erased positions, public numbering
	tab [8][256]uint64 // tab[i][v]: errata (byte j = pos[j]) for remainder byte i = v
}

// NewErasureSolver builds the solver for the given erasure set, which must
// be exactly R() distinct in-range positions (data byte p for p < K, check
// byte p-K otherwise) of a code with at most 8 check symbols.
func (c *Code) NewErasureSolver(positions []int) (*ErasureSolver, error) {
	if c.enc == nil || len(positions) != c.r {
		return nil, fmt.Errorf("rs: erasure solver needs exactly r = %d positions (and r <= 8), got %d", c.r, len(positions))
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
	s := &ErasureSolver{c: c, pos: append([]int(nil), positions...)}
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
	var e uint64
	for i := 0; i < c.r; i++ {
		e ^= s.tab[i][byte(rem>>(8*uint(i)))]
	}
	for j, p := range s.pos {
		if p < c.k {
			data[p] ^= byte(e >> (8 * uint(j)))
		} else {
			check[p-c.k] ^= byte(e >> (8 * uint(j)))
		}
	}
}
