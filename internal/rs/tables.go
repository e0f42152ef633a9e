package rs

import (
	"encoding/binary"

	"chipkillpm/internal/gf"
)

// This file implements the table-driven fast paths for the RS codec. The
// reference implementations stay in rs.go (EncodePolyDiv, SyndromesHorner)
// as differential-test oracles and as fallbacks for wide codes whose check
// symbols do not fit the packed uint64 LFSR state.
//
// The paper's code is RS(72, 64) with r = 8 check bytes, so the whole LFSR
// state packs into one uint64 (check symbol i in byte i). Encoding streams
// one data byte per step through a 256-entry feedback table; syndromes are
// evaluated over the 8-byte remainder of the received word instead of all
// 72 codeword bytes, because every root of g(x) gives the same value on a
// polynomial and on its remainder mod g.

// encTables drive the byte-at-a-time LFSR for Encode/EncodeDelta and the
// decoder's remainder computation. Only built when r <= 8.
type encTables struct {
	topSh  uint        // shift extracting the top check symbol
	mask   uint64      // low 8r bits
	fb     [256]uint64 // fb[v] packs v*g_0 .. v*g_{r-1} into bytes 0..r-1
	sliced bool        // slice tables valid (r == 8 only)
	// slice[k][v] = L^8(v << 8k), where L is one zero-input step. Because a
	// step is GF(2)-linear in the packed state, eight steps over state s
	// with inputs d0..d7 equal L^8(s ^ u) with dj placed at byte 7-j of u;
	// decomposing L^8 per input byte gives the slicing-by-8 evaluation.
	slice [8][256]uint64
	// unit[d] = x^d mod g for every codeword degree d < n (r == 8 only):
	// the syndrome word of a unit error at degree d, which CorrectWord
	// scales by a magnitude to re-check a candidate fix by linearity.
	unit []uint64
}

func (c *Code) buildEncTables() *encTables {
	if c.r > 8 {
		return nil
	}
	e := &encTables{topSh: uint(8 * (c.r - 1))}
	if c.r == 8 {
		e.mask = ^uint64(0)
	} else {
		e.mask = 1<<(8*uint(c.r)) - 1
	}
	for v := 1; v < 256; v++ {
		var row uint64
		for i := 0; i < c.r; i++ {
			row |= uint64(c.f.Mul(gf.Elem(v), c.gen[i])) << (8 * uint(i))
		}
		e.fb[v] = row
	}
	if c.r == 8 {
		e.sliced = true
		for k := 0; k < 8; k++ {
			for v := 0; v < 256; v++ {
				s := uint64(v) << (8 * uint(k))
				for step := 0; step < 8; step++ {
					s = e.step(s, 0)
				}
				e.slice[k][v] = s
			}
		}
		e.unit = make([]uint64, c.n)
		for d := range e.unit {
			if d < c.r {
				e.unit[d] = 1 << (8 * uint(d))
			} else {
				e.unit[d] = e.step(e.unit[d-1], 0)
			}
		}
	}
	return e
}

// step advances the division register by one symbol, highest degree first:
// state = (state*x + d*x^r) mod g.
//
//chipkill:seqread
func (e *encTables) step(state uint64, d byte) uint64 {
	fb := byte(state>>e.topSh) ^ d
	return state<<8&e.mask ^ e.fb[fb]
}

// remainder returns data(x)*x^r mod g packed into a uint64, where data byte
// j is the coefficient of x^j. Leading zero bytes are skipped: they cannot
// move a zero register.
//
//chipkill:seqread
func (e *encTables) remainder(data []byte) uint64 {
	if e.sliced && len(data) >= 8 && len(data)%8 == 0 {
		return e.remainderSliced(data)
	}
	i := len(data) - 1
	for i >= 0 && data[i] == 0 {
		i--
	}
	var state uint64
	for ; i >= 0; i-- {
		state = e.step(state, data[i])
	}
	return state
}

// remainderSliced consumes eight symbols per iteration (highest degree
// first, so chunks walk backward through data). Folding the state into the
// chunk first means each iteration is one 8-byte load, one XOR, and eight
// independent table lookups — no serial per-byte feedback chain. The
// all-zero chunk test keeps sparse deltas (EncodeDelta's common case) as
// cheap as the leading-zero skip in the byte loop.
//
//chipkill:seqread
func (e *encTables) remainderSliced(data []byte) uint64 {
	var state uint64
	for o := len(data) - 8; o >= 0; o -= 8 {
		t := state ^ binary.LittleEndian.Uint64(data[o:])
		if t == 0 {
			state = 0
			continue
		}
		state = e.fold(t)
	}
	return state
}

// fold is eight zero-input steps of the register holding t: L^8(t), one
// slicing-by-8 iteration.
//
//chipkill:seqread
func (e *encTables) fold(t uint64) uint64 {
	return e.slice[7][byte(t>>56)] ^ e.slice[6][byte(t>>48)] ^
		e.slice[5][byte(t>>40)] ^ e.slice[4][byte(t>>32)] ^
		e.slice[3][byte(t>>24)] ^ e.slice[2][byte(t>>16)] ^
		e.slice[1][byte(t>>8)] ^ e.slice[0][byte(t)]
}

// decTables hold per-root multiplication tables: root[j] multiplies by
// alpha^(j+1) (syndrome Horner steps), step[j] by alpha^-(j+1) (Chien term
// advance). They apply to any r and are built eagerly in New.
type decTables struct {
	root []gf.MulTable
	step []gf.MulTable
}

func (c *Code) buildDecTables() *decTables {
	d := &decTables{
		root: make([]gf.MulTable, c.r),
		step: make([]gf.MulTable, c.r),
	}
	for j := 0; j < c.r; j++ {
		d.root[j] = c.f.MulTable(c.f.Exp(j + 1))
		d.step[j] = c.f.MulTable(c.f.Exp(-(j + 1)))
	}
	return d
}

// decodeScratch is the per-call working set, pooled on the Code so that
// concurrent decoders (the parallel boot scrub) share no state while
// steady-state decoding allocates only the returned corrections.
type decodeScratch struct {
	syn     []gf.Elem // r syndromes
	gamma   []gf.Elem // erasure locator, cap r+1
	tpoly   []gf.Elem // Forney syndromes, r
	bmSigma []gf.Elem // Berlekamp-Massey buffers, 2r+2 each
	bmPrev  []gf.Elem
	bmNext  []gf.Elem
	lambda  []gf.Elem // errata locator sigma*gamma, 2r+2
	omega   []gf.Elem // errata evaluator, r
	deriv   []gf.Elem // lambda', 2r+2
	terms   []gf.Elem // Chien term registers, 2r+2
	seen    []bool    // erasure membership by position, n
}

func (c *Code) getScratch() *decodeScratch {
	if sc, ok := c.scratch.Get().(*decodeScratch); ok {
		return sc
	}
	return &decodeScratch{
		syn:     make([]gf.Elem, c.r),
		gamma:   make([]gf.Elem, 0, c.r+1),
		tpoly:   make([]gf.Elem, c.r),
		bmSigma: make([]gf.Elem, 2*c.r+2),
		bmPrev:  make([]gf.Elem, 2*c.r+2),
		bmNext:  make([]gf.Elem, 2*c.r+2),
		lambda:  make([]gf.Elem, 2*c.r+2),
		omega:   make([]gf.Elem, c.r),
		deriv:   make([]gf.Elem, 2*c.r+2),
		terms:   make([]gf.Elem, 2*c.r+2),
		seen:    make([]bool, c.n),
	}
}

func (c *Code) putScratch(sc *decodeScratch) { c.scratch.Put(sc) }

// syndromesInto computes S_1..S_r into syn and reports whether the received
// word is a codeword. Fast path: one LFSR pass over the data plus a Horner
// evaluation of the r-symbol remainder at each root; falls back to the
// full-codeword Horner oracle when the packed LFSR is unavailable.
func (c *Code) syndromesInto(syn []gf.Elem, data, check []byte) bool {
	if c.enc == nil {
		ref, clean := c.SyndromesHorner(data, check)
		copy(syn, ref)
		return clean
	}
	rem := c.enc.remainder(data)
	for i := 0; i < c.r; i++ {
		rem ^= uint64(check[i]) << (8 * uint(i))
	}
	if rem == 0 {
		for i := range syn {
			syn[i] = 0
		}
		return true
	}
	for j := 0; j < c.r; j++ {
		tab := c.dec.root[j]
		var s gf.Elem
		for i := c.r - 1; i >= 0; i-- {
			s = tab[s] ^ gf.Elem(byte(rem>>(8*uint(i))))
		}
		syn[j] = s
	}
	return false
}

// berlekampMasseyFast is the allocation-free Berlekamp-Massey over seq,
// writing into the scratch buffers and returning the error locator (which
// aliases scratch memory, valid until the scratch is reused).
func (c *Code) berlekampMasseyFast(seq []gf.Elem, sc *decodeScratch) gf.Poly {
	f := c.f
	sigma, prev, next := sc.bmSigma, sc.bmPrev, sc.bmNext
	for i := range sigma {
		sigma[i], prev[i], next[i] = 0, 0, 0
	}
	sigma[0], prev[0] = 1, 1
	l := 0
	shift := 1
	b := gf.Elem(1)
	for i := 0; i < len(seq); i++ {
		d := seq[i]
		for j := 1; j <= l; j++ {
			if sigma[j] != 0 && seq[i-j] != 0 {
				d ^= f.Mul(sigma[j], seq[i-j])
			}
		}
		if d == 0 {
			shift++
			continue
		}
		scale := f.Div(d, b)
		if 2*l <= i {
			copy(next, sigma)
			for j, p := range prev {
				if p != 0 {
					next[j+shift] ^= f.Mul(scale, p)
				}
			}
			sigma, prev, next = next, sigma, prev
			b = d
			l = i + 1 - l
			shift = 1
		} else {
			for j, p := range prev {
				if p != 0 {
					sigma[j+shift] ^= f.Mul(scale, p)
				}
			}
			shift++
		}
	}
	deg := -1
	for i := len(sigma) - 1; i >= 0; i-- {
		if sigma[i] != 0 {
			deg = i
			break
		}
	}
	return gf.Poly(sigma[:deg+1])
}
