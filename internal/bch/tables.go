package bch

import (
	"encoding/binary"
	"math/bits"
	"sort"

	"chipkillpm/internal/gf"
)

// This file implements the table-driven encode and decode paths, the only
// implementation of each kernel: New rejects the parity widths they do not
// serve. The bit-serial, polynomial-division and exhaustive-Chien
// references live in the package's tests, as oracles only.
//
// Decode runs in two tiers over five stages, each on its own precomputed
// structure:
//
//  1. Remainder. D(x) = data(x)*x^r + parity(x) mod g(x) through an LFSR
//     table of u(x)*x^r mod g(x) per input byte value. The paper's r = 264
//     layout consumes eight data bytes per step: one carry-less-multiply
//     Barrett reduction where the CPU has PCLMULQDQ (clmulFeed264), else
//     eight byte positions of that table (slicing-by-8); other layouts
//     step per byte.
//  2. Syndromes. Because g | x^n - 1 has alpha^1..alpha^2t as roots,
//     S_e(received) = D(alpha^e), so syndromes are evaluated over the
//     ParityBytes() remainder bytes instead of the whole codeword. Only
//     odd-index syndromes are tabulated, four 16-bit lanes per uint64 so a
//     row is XORed in word-wise; even ones follow from S_2e = S_e^2. The
//     table is laid out word-major: slab j holds word j of every row, so
//     S_1, S_3, S_5, S_7 come from one slab.
//  3. Locator. Berlekamp-Massey with Berlekamp's binary simplification:
//     given S_2e = S_e^2 every second discrepancy is zero and is skipped.
//  4. Roots. Closed forms up to degree 4; degrees 5..8 through an affine
//     multiple of the locator, whose GF(2)-linear part is solved exactly;
//     above that a blocked Chien scan in the log domain over the field's
//     exp table, deflating the locator by each root found until the
//     direct solvers take over.
//  5. Verification. Each flipped bit's contribution is folded back into
//     the odd syndromes, which must all cancel (Decode, in bch.go).
//
// The first tier (decodeFew) runs stages 2..4 on S_1..S_8 alone — one
// syndrome slab, four Berlekamp-Massey steps, closed-form roots — and
// verifies by folding the flipped bits into the stage-1 remainder instead
// of the syndromes. Any failure falls through to the full t-error path,
// which reuses the remainder and the first slab.

// encTables drive the LFSR for Encode/EncodeDeltaInto and the decoder's
// remainder computation: one byte-indexed feed row per input byte value,
// and in the r = 264 layout without carry-less multiply the same rows
// advanced by 1..7 more bytes for slice8Feed.
type encTables struct {
	w      int              // uint64 words per r-bit LFSR state
	tab    []uint64         // 256 rows of w words: tab[u] = u(x)*x^r mod g; nil when slice8 is set
	slice8 [][256][5]uint64 // r = 264 only: slice8[k][u] = u(x)*x^(8k+r) mod g; k = 0 alone with clmul
	clmul  *[6]uint64       // r = 264 with PCLMULQDQ only: mu_lo, g0..g4 for clmulFeed264
	loWord int              // word holding bit r-8 (start of the outgoing byte)
	loOff  uint             // offset of bit r-8 within loWord
	split  bool             // outgoing byte straddles loWord and loWord+1
}

// quadNone marks "no solution" entries of the quadratic-root table; the
// same sentinel marks non-cubes in the cube-root table.
const quadNone gf.Elem = 0xFFFF

// scanBlock is the most positions one block of the root scan evaluates.
const scanBlock = 64

// fewErrors is the most errors Decode's first tier corrects: as many as
// the syndromes S_1..S_8 of the first syndrome slab determine.
const fewErrors = 4

// maxDirect is the highest locator degree solved without scanning, and
// maxKernel the widest kernel of the affine multiple's linear part that
// affineSolve enumerates: an affine multiple of a degree-8 locator has
// degree at most 2^7, so its linear part never has a wider one.
const (
	maxDirect = 8
	maxKernel = 7
)

// decTables hold everything the fast decode path needs.
type decTables struct {
	topMask  uint64    // valid-bit mask for the top word of the remainder
	synWords int       // uint64 words per odd-syndrome row: ceil(t/4)
	synTab   []uint64  // [synWords][pb][256]: slab j holds word j of each row, S_(8j+2l+1) in 16-bit lane l
	scanBlk  int       // root-scan block: largest b <= scanBlock with t*(b-1) < 2^m-1
	quad     []gf.Elem // quad[c] = y solving y^2+y=c, or quadNone
	cbrt     []gf.Elem // cbrt[c] = one y with y^3=c, or quadNone
}

// decodeScratch is the per-call working set, pooled on the Code so that
// concurrent decoders (the parallel boot scrub) share no state yet steady-
// state decoding allocates nothing.
type decodeScratch struct {
	state     []uint64  // LFSR state, then the received word's remainder; enc.w words
	check     []uint64  // the first tier's remainder after its flips, enc.w words
	rem       []byte    // remainder bytes, pb
	synAcc    []uint64  // packed odd syndromes, ceil(t/4) words
	syn       []gf.Elem // 2t syndromes
	bmSigma   []gf.Elem // Berlekamp-Massey buffers, 2t+2 each
	bmPrev    []gf.Elem
	bmNext    []gf.Elem
	sigmaWork []gf.Elem // root finding: deflated locator, t+1
	positions []int     // found error positions, cap 2t
}

// buildEncTables constructs the byte-wise LFSR table (New guarantees
// r >= 8, so the byte-serial recurrence holds). With clmul set (New passes
// hasCLMUL), the r = 264 layout gets the Barrett constants that select
// clmulFeed264 and keeps only row family 0, which the per-byte tail and
// the delta-table build read; without them it also builds families 1..7,
// and feed264 runs the slicing-by-8 table loop, which tests use as the
// kernel's oracle.
func (c *Code) buildEncTables(clmul bool) *encTables {
	w := (c.r + 63) / 64
	e := &encTables{
		w:      w,
		tab:    make([]uint64, 256*w),
		loWord: (c.r - 8) / 64,
		loOff:  uint((c.r - 8) % 64),
	}
	e.split = (c.r-1)/64 != e.loWord

	// bitRem[b] = x^(r+b) mod g for b = 0..7, each w words.
	var bitRem [8][]uint64
	cur := make([]uint64, w)
	// x^r mod g = g(x) - x^r: the generator with its leading bit cleared.
	// When r%64 == 0 the leading bit lives in word w and is dropped by the
	// truncating copy below.
	for i := range cur {
		if i < len(c.gen) {
			cur[i] = c.gen[i]
		}
	}
	if c.r%64 != 0 {
		cur[c.r/64] &^= 1 << uint(c.r%64)
	}
	for b := 0; b < 8; b++ {
		bitRem[b] = append([]uint64(nil), cur...)
		// cur = cur * x mod g.
		top := cur[(c.r-1)/64]>>uint((c.r-1)%64)&1 != 0
		for i := w - 1; i > 0; i-- {
			cur[i] = cur[i]<<1 | cur[i-1]>>63
		}
		cur[0] <<= 1
		if top {
			if c.r%64 != 0 {
				cur[c.r/64] &^= 1 << uint(c.r%64)
			}
			for i, g := range bitRem[0] {
				cur[i] ^= g
			}
		}
	}
	// tab[u] = XOR of bitRem[b] over set bits b of u.
	for u := 1; u < 256; u++ {
		b := bits.TrailingZeros8(uint8(u))
		rest := u & (u - 1)
		dst := e.tab[u*w : u*w+w]
		copy(dst, e.tab[rest*w:rest*w+w])
		for i, x := range bitRem[b] {
			dst[i] ^= x
		}
	}
	if w == 5 && e.loOff == 0 && !e.split {
		families := 8
		if clmul {
			// mu = floor(x^328 / g) = x^64 + mu_lo, and g without its
			// x^264 term: four whole words and the 8 bits of the fifth.
			mu, _ := gf.NewPoly2(328).DivMod(c.gen)
			g := c.gen
			e.clmul = &[6]uint64{mu[0], g[0], g[1], g[2], g[3], g[4] & 0xFF}
			families = 1
		}
		s := make([][256][5]uint64, families)
		for u := range s[0] {
			copy(s[0][u][:], e.tab[u*w:u*w+w])
		}
		e.slice8, e.tab = s, nil
		// Positions 1..7: each is the previous one advanced by one
		// zero-feed step (multiply by x^8 mod g).
		for k := 1; k < families; k++ {
			for u := 1; u < 256; u++ {
				s[k][u] = s[k-1][u]
				e.step(s[k][u][:], 0)
			}
		}
	}
	return e
}

// row returns the LFSR feed row of byte value u: u(x)*x^r mod g.
func (e *encTables) row(u byte) []uint64 {
	if e.slice8 != nil {
		return e.slice8[0][u][:]
	}
	return e.tab[int(u)*e.w : int(u)*e.w+e.w]
}

// step advances the LFSR by one input byte: state = (state<<8 + v*x^r) mod g.
func (e *encTables) step(state []uint64, v byte) {
	u := byte(state[e.loWord] >> e.loOff)
	if e.split {
		u |= byte(state[e.loWord+1] << (64 - e.loOff))
	}
	u ^= v
	state[e.loWord] &^= 0xFF << e.loOff
	if e.split {
		state[e.loWord+1] &^= 0xFF >> (64 - e.loOff)
	}
	for i := len(state) - 1; i > 0; i-- {
		state[i] = state[i]<<8 | state[i-1]>>56
	}
	state[0] <<= 8
	for i, t := range e.row(u) {
		state[i] ^= t
	}
}

// remainder runs the LFSR over data (highest byte first, matching data bit
// i at degree r+i) and leaves data(x)*x^r mod g in state.
func (e *encTables) remainder(state []uint64, data []byte) {
	clear(state)
	e.feed(state, data)
}

// zeroBlock is the zero data zeroFeed streams through the LFSR; its length
// is a multiple of eight, so every block but the last takes whole steps.
var zeroBlock [256]byte

// zeroFeed multiplies the LFSR state by x^(8n) mod g by feeding it n zero
// bytes: eight per step in the r = 264 layout.
func (e *encTables) zeroFeed(state []uint64, n int) {
	for n > 0 {
		k := min(n, len(zeroBlock))
		e.feed(state, zeroBlock[:k])
		n -= k
	}
}

// feed continues the LFSR over data, highest byte first: state becomes
// (state*x^(8*len(data)) + data(x)*x^r) mod g. From a zero state, leading
// zero bytes leave it zero and are skipped.
func (e *encTables) feed(state []uint64, data []byte) {
	if e.slice8 != nil {
		e.feed264(state, data)
		return
	}
	zero := true
	for _, w := range state {
		zero = zero && w == 0
	}
	i := len(data) - 1
	if zero {
		for ; i >= 0 && data[i] == 0; i-- {
		}
	}
	for ; i >= 0; i-- {
		e.step(state, data[i])
	}
}

// feed264 is the register-resident specialisation of feed for the 5-word
// byte-aligned layout (r = 264, the paper's BCH code). After the zero-skip,
// the whole eight-byte chunks at the top of data go to a chunk kernel:
// clmulFeed264 where the CPU has carry-less multiply, slice8Feed otherwise.
// Fewer than eight low bytes remain; they take the per-byte step, where
// the outgoing byte is exactly the low byte of word 4, so it unrolls into
// shift/xor chains on five locals with one row load.
func (e *encTables) feed264(state []uint64, data []byte) {
	s := (*[5]uint64)(state)
	m := len(data)
	if s[0]|s[1]|s[2]|s[3]|s[4] == 0 {
		for ; m > 0 && data[m-1] == 0; m-- {
		}
	}
	if lo := m % 8; lo < m {
		if e.clmul != nil {
			clmulFeed264(e.clmul, s, data[lo:m])
		} else {
			e.slice8Feed(s, data[lo:m])
		}
		m = lo
	}
	t := &e.slice8[0]
	s0, s1, s2, s3, s4 := s[0], s[1], s[2], s[3], s[4]
	for i := m - 1; i >= 0; i-- {
		row := &t[byte(s4)^data[i]]
		s4 = (s3 >> 56) ^ row[4]
		s3 = (s3<<8 | s2>>56) ^ row[3]
		s2 = (s2<<8 | s1>>56) ^ row[2]
		s1 = (s1<<8 | s0>>56) ^ row[1]
		s0 = (s0 << 8) ^ row[0]
	}
	s[0], s[1], s[2], s[3], s[4] = s0, s1, s2, s3, s4
}

// slice8Feed is the table chunk kernel: len(data) is a multiple of eight,
// consumed eight bytes per step, highest chunk first. With S the 264-bit
// state and D the next eight bytes,
//
//	S' = (S mod x^200)*x^64  +  sum_k slice8[k][byte_k((S >> 200) + D)]
//
// because byte k of the 64 bits leaving the register sits 8k degrees above
// x^r, which is row family slice8[k]. The eight row loads of a step are
// independent of each other; only the next step waits on them.
func (e *encTables) slice8Feed(s *[5]uint64, data []byte) {
	t := (*[8][256][5]uint64)(e.slice8)
	s0, s1, s2, s3, s4 := s[0], s[1], s[2], s[3], s[4]
	for i := len(data); i >= 8; i -= 8 {
		v := (s4<<56 | s3>>8) ^ binary.LittleEndian.Uint64(data[i-8:i])
		r0, r1, r2, r3 := &t[0][byte(v)], &t[1][byte(v>>8)], &t[2][byte(v>>16)], &t[3][byte(v>>24)]
		r4, r5, r6, r7 := &t[4][byte(v>>32)], &t[5][byte(v>>40)], &t[6][byte(v>>48)], &t[7][byte(v>>56)]
		s4 = s3&0xFF ^ r0[4] ^ r1[4] ^ r2[4] ^ r3[4] ^ r4[4] ^ r5[4] ^ r6[4] ^ r7[4]
		s3 = s2 ^ r0[3] ^ r1[3] ^ r2[3] ^ r3[3] ^ r4[3] ^ r5[3] ^ r6[3] ^ r7[3]
		s2 = s1 ^ r0[2] ^ r1[2] ^ r2[2] ^ r3[2] ^ r4[2] ^ r5[2] ^ r6[2] ^ r7[2]
		s1 = s0 ^ r0[1] ^ r1[1] ^ r2[1] ^ r3[1] ^ r4[1] ^ r5[1] ^ r6[1] ^ r7[1]
		s0 = r0[0] ^ r1[0] ^ r2[0] ^ r3[0] ^ r4[0] ^ r5[0] ^ r6[0] ^ r7[0]
	}
	s[0], s[1], s[2], s[3], s[4] = s0, s1, s2, s3, s4
}

// stateBytes serialises the LFSR state little-endian into out, which holds
// at most 8*len(state) bytes: whole words, then the bytes of a partial one.
func stateBytes(state []uint64, out []byte) {
	n := len(out) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(out[i:], state[i>>3])
	}
	if n < len(out) {
		x := state[n>>3]
		for i := n; i < len(out); i++ {
			out[i] = byte(x)
			x >>= 8
		}
	}
}

// deltaTables hold the nibble rows behind EncodeDeltaInto's sparse path.
// Byte position p keeps 32 rows: row n is n(x)*x^(8p+r) mod g and row
// 16+n is (n<<4)(x)*x^(8p+r) mod g, for nibble values n = 0..15. Encoding
// is linear, so byte value v at position p contributes
// row[v&15] ^ row[16+v>>4]: two loads from 32*w words per position where a
// byte-indexed row would need 256*w (for the paper's code 320 KiB instead
// of 2.5 MiB, small enough to stay cache-resident beside the chip cells).
// The r = 264 layout (the one feed264 specialises) is rows264; every
// other layout is rows, the same rows flattened to [p][32][w] words.
type deltaTables struct {
	rows264 [][32][5]uint64
	rows    []uint64
}

// deltaTables returns the nibble rows for every data byte position,
// building them on first use: position 0 from the encoder's feed rows,
// each later one the previous advanced by one zero-feed step (multiply by
// x^8 mod g), 30 steps per position. Racing builders each construct a
// candidate; CompareAndSwap keeps exactly one, so callers always share a
// single table.
func (c *Code) deltaTables() *deltaTables {
	if d := c.deltaTabs.Load(); d != nil {
		return d
	}
	e := c.enc
	w, db := e.w, c.DataBytes()
	d := &deltaTables{}
	if e.slice8 != nil {
		d.rows264 = make([][32][5]uint64, db)
	} else {
		d.rows = make([]uint64, db*32*w)
	}
	for p := 0; p < db; p++ {
		for i := 1; i < 32; i++ {
			if i == 16 {
				continue // the zero high nibble
			}
			dst := d.row(p, i, w)
			if p > 0 {
				copy(dst, d.row(p-1, i, w))
				e.step(dst, 0)
			} else if i < 16 {
				copy(dst, e.row(byte(i)))
			} else {
				copy(dst, e.row(byte(i-16)<<4))
			}
		}
	}
	if !c.deltaTabs.CompareAndSwap(nil, d) {
		d = c.deltaTabs.Load()
	}
	return d
}

// row returns nibble row i (0..31) of byte position p, w words, in
// whichever layout the table took.
func (d *deltaTables) row(p, i, w int) []uint64 {
	if d.rows264 != nil {
		return d.rows264[p][i][:]
	}
	return d.rows[(32*p+i)*w : (32*p+i+1)*w]
}

// encode264 is the sparse delta encode for the r = 264 layout: the delta
// starting at byte position p0 sums two nibble rows per byte into five
// locals and writes the 33 parity bytes.
func (d *deltaTables) encode264(out, delta []byte, p0 int) {
	rows := d.rows264[p0 : p0+len(delta)]
	delta = delta[:len(rows)]
	var s0, s1, s2, s3, s4 uint64
	for i := range rows {
		v := delta[i]
		// v>>4 is already below 16; the mask lets the compiler see it.
		lo, hi := &rows[i][v&15], &rows[i][16+(v>>4&15)]
		s0 ^= lo[0] ^ hi[0]
		s1 ^= lo[1] ^ hi[1]
		s2 ^= lo[2] ^ hi[2]
		s3 ^= lo[3] ^ hi[3]
		s4 ^= lo[4] ^ hi[4]
	}
	out = out[:33]
	binary.LittleEndian.PutUint64(out[0:], s0)
	binary.LittleEndian.PutUint64(out[8:], s1)
	binary.LittleEndian.PutUint64(out[16:], s2)
	binary.LittleEndian.PutUint64(out[24:], s3)
	out[32] = byte(s4)
}

// encode is encode264 for every other layout: acc (w words) accumulates
// the nibble rows of the delta starting at byte position p0.
func (d *deltaTables) encode(acc []uint64, delta []byte, p0 int) {
	w := len(acc)
	for i, v := range delta {
		pos := d.rows[32*w*(p0+i):]
		lo := pos[int(v&15)*w:][:w]
		hi := pos[(16+int(v>>4))*w:][:w]
		for j := range acc {
			acc[j] ^= lo[j] ^ hi[j]
		}
	}
}

// decTables builds (once) and returns the decode tables.
func (c *Code) decTables() *decTables {
	c.decOnce.Do(func() {
		f := c.field
		pb := c.ParityBytes()
		t := c.t
		d := &decTables{synWords: (t + 3) / 4, topMask: ^uint64(0)}
		if rem := uint(c.r % 64); rem != 0 {
			d.topMask = 1<<rem - 1
		}

		// Odd-syndrome tables over remainder bytes: row (i, u) holds the
		// contributions of byte value u at byte position i to S_1, S_3,
		// ..., S_(2t-1), lane l of word j carrying S_(8j+2l+1). Word j of
		// every row lives in slab j, so the first tier reads one slab.
		sw := d.synWords
		slab := pb * 256
		d.synTab = make([]uint64, sw*slab)
		bitRow := make([]uint64, 8*sw)
		for i := 0; i < pb; i++ {
			for bit := 0; bit < 8; bit++ {
				row := bitRow[bit*sw : bit*sw+sw]
				for j := range row {
					row[j] = 0
				}
				deg := 8*i + bit
				if deg >= c.r {
					continue // masked bits never contribute
				}
				for j := 0; j < t; j++ {
					row[j/4] |= uint64(f.Exp(deg*(2*j+1))) << (16 * uint(j%4))
				}
			}
			for u := 1; u < 256; u++ {
				b := bits.TrailingZeros8(uint8(u))
				rest := u & (u - 1)
				for j := 0; j < sw; j++ {
					base := j*slab + i*256
					d.synTab[base+u] = d.synTab[base+rest] ^ bitRow[b*sw+j]
				}
			}
		}

		// Root-scan block: term j of a block walks j*(blk-1) entries down
		// the doubled exp table from an index in [n, 2n), so it must not
		// reach below zero for the highest term, j = t.
		d.scanBlk = min(scanBlock, (f.N()-1)/t+1)

		// Quadratic solver: quad[y^2+y] = y. Both y and y+1 solve the same
		// right-hand side; either representative works since callers derive
		// the second root as y+1.
		d.quad = make([]gf.Elem, f.Size())
		for i := range d.quad {
			d.quad[i] = quadNone
		}
		for y := f.Size() - 1; y >= 0; y-- {
			d.quad[f.Sqr(gf.Elem(y))^gf.Elem(y)] = gf.Elem(y)
		}

		// Cube-root table for the closed-form cubic: any one root works,
		// the other two come out of the deflated quadratic.
		d.cbrt = make([]gf.Elem, f.Size())
		for i := range d.cbrt {
			d.cbrt[i] = quadNone
		}
		for y := f.Size() - 1; y >= 0; y-- {
			d.cbrt[f.Mul(f.Sqr(gf.Elem(y)), gf.Elem(y))] = gf.Elem(y)
		}
		c.dec = d
	})
	return c.dec
}

func (c *Code) getScratch() *decodeScratch {
	if sc, ok := c.scratch.Get().(*decodeScratch); ok {
		return sc
	}
	w := c.enc.w
	return &decodeScratch{
		state:     make([]uint64, w),
		check:     make([]uint64, w),
		rem:       make([]byte, c.ParityBytes()),
		synAcc:    make([]uint64, (c.t+3)/4),
		syn:       make([]gf.Elem, 2*c.t),
		bmSigma:   make([]gf.Elem, 2*c.t+2),
		bmPrev:    make([]gf.Elem, 2*c.t+2),
		bmNext:    make([]gf.Elem, 2*c.t+2),
		sigmaWork: make([]gf.Elem, c.t+1),
		positions: make([]int, 0, 2*c.t),
	}
}

func (c *Code) putScratch(sc *decodeScratch) { c.scratch.Put(sc) }

// syndromesInto computes the 2t syndromes into syn and reports whether the
// received word is a codeword; syn is written only when it is not.
func (c *Code) syndromesInto(syn []gf.Elem, data, parity []byte, sc *decodeScratch) bool {
	d := c.decTables()
	if c.remainderInto(d, data, parity, sc) {
		return true
	}
	c.oddSyndromes(d, syn, sc, 0)
	return false
}

// remainderInto leaves the received word's remainder mod g in sc.state —
// data(x)*x^r mod g plus parity (degree < r, so congruent to itself), with
// the undefined high bits of the last parity byte masked off exactly as
// the bit-serial path ignores degrees >= r — and reports whether it is
// zero, i.e. whether the word is a codeword. When it is not, sc.rem holds
// its bytes.
func (c *Code) remainderInto(d *decTables, data, parity []byte, sc *decodeScratch) bool {
	st := sc.state
	c.enc.remainder(st, data)
	n := len(parity) &^ 7
	for i := 0; i < n; i += 8 {
		st[i>>3] ^= binary.LittleEndian.Uint64(parity[i:])
	}
	for i := n; i < len(parity); i++ {
		st[i>>3] ^= uint64(parity[i]) << (8 * uint(i&7))
	}
	st[len(st)-1] &= d.topMask
	var nz uint64
	for _, w := range st {
		nz |= w
	}
	if nz == 0 {
		return true
	}
	stateBytes(st, sc.rem)
	return false
}

// synWord returns word j of the packed odd syndromes of the remainder
// bytes rem: the XOR of slab j's rows for its nonzero bytes.
func (d *decTables) synWord(rem []byte, j int) uint64 {
	slab := d.synTab[j*len(rem)*256 : (j+1)*len(rem)*256]
	var a uint64
	for i, b := range rem {
		if b != 0 {
			a ^= slab[i<<8|int(b)]
		}
	}
	return a
}

// oddSyndromes fills the packed odd syndromes of sc.rem from word `from`
// on (the words before it are already in sc.synAcc) and unpacks all 2t
// syndromes into syn.
func (c *Code) oddSyndromes(d *decTables, syn []gf.Elem, sc *decodeScratch, from int) {
	for j := from; j < len(sc.synAcc); j++ {
		sc.synAcc[j] = d.synWord(sc.rem, j)
	}
	c.unpackSyndromes(syn, sc.synAcc, c.t)
}

// unpackSyndromes unpacks the first n odd syndromes S_(2j+1), lane j%4
// of word j/4 of acc, into syn[:2n], with the even ones by squaring:
// S_2e = S_e^2.
func (c *Code) unpackSyndromes(syn []gf.Elem, acc []uint64, n int) {
	for j := 0; j < n; j++ {
		syn[2*j] = gf.Elem(acc[j/4] >> (16 * uint(j%4)))
	}
	for e := 2; e <= 2*n; e += 2 {
		syn[e-1] = c.field.Sqr(syn[e/2-1])
	}
}

// decodeFew is Decode's first tier, for words with at most fewErrors
// errors: S_1..S_8 from the first syndrome slab, Berlekamp-Massey over
// those eight, and closed-form roots. It accepts — flipping the bits and
// returning their count — only when the flips leave a codeword: each
// flipped bit's remainder is folded into a copy of the received word's
// (a parity bit is its own remainder; data bit q contributes
// x^(r+q) mod g, one nibble row of the delta table), and the sum must
// vanish. It reports false, touching nothing, on any other outcome. The
// full path then reuses sc.state, sc.rem and the first slab's word.
func (c *Code) decodeFew(d *decTables, data, parity []byte, sc *decodeScratch) (int, bool) {
	sc.synAcc[0] = d.synWord(sc.rem, 0)
	syn := sc.syn[:2*fewErrors]
	c.unpackSyndromes(syn, sc.synAcc, fewErrors)
	sigma := c.berlekampMassey(syn, sc)
	if len(sigma) < 2 || len(sigma) > fewErrors+1 {
		return 0, false
	}
	positions, ok := c.directRoots(d, sigma, sc.positions[:0])
	if !ok {
		return 0, false
	}
	chk := sc.check
	copy(chk, sc.state)
	dt := c.deltaTables()
	for _, p := range positions {
		if p < c.r {
			chk[p>>6] ^= 1 << uint(p&63)
			continue
		}
		q := p - c.r
		for j, v := range dt.row(q>>3, bitRow(q&7), len(chk)) {
			chk[j] ^= v
		}
	}
	for _, v := range chk {
		if v != 0 {
			return 0, false
		}
	}
	c.flip(data, parity, positions)
	return len(positions), true
}

// bitRow is the nibble row of the delta table that holds bit b (0..7) of
// a byte alone: low-nibble row 1<<b, or high-nibble row 16 + 1<<(b-4).
func bitRow(b int) int {
	if b < 4 {
		return 1 << b
	}
	return 16 + 1<<(b-4)
}

// isCodeword is the cheap membership test behind CheckClean: the received
// word is a codeword iff its remainder mod g is zero.
func (c *Code) isCodeword(data, parity []byte) bool {
	d := c.decTables()
	sc := c.getScratch()
	defer c.putScratch(sc)
	return c.remainderInto(d, data, parity, sc)
}

// berlekampMassey is the allocation-free Berlekamp-Massey, writing into the
// scratch buffers and returning the error locator (aliasing one of them,
// valid until the scratch is reused).
//
// It relies on syn being the syndromes of a binary word, S_2e = S_e^2 —
// true by construction, the even ones are derived by squaring. For such a
// sequence the discrepancy of every second step (0-based odd i) is zero
// whatever the number of errors (Berlekamp's binary simplification), so
// those steps reduce to the shift they would have applied and only t
// discrepancies are evaluated. The buffers are not cleared: ns and np
// track the live prefix of sigma and prev, and an update zero-extends
// exactly the elements it grows into. Massey's length bound keeps both
// within degree 2t.
func (c *Code) berlekampMassey(syn []gf.Elem, sc *decodeScratch) gf.Poly {
	f := c.field
	sigma, prev, next := sc.bmSigma, sc.bmPrev, sc.bmNext
	sigma[0], prev[0] = 1, 1
	ns, np := 1, 1
	l := 0
	shift := 1
	b := gf.Elem(1)
	for i := 0; i < len(syn); i += 2 {
		d := syn[i]
		for j := 1; j < ns; j++ {
			d ^= f.Mul(sigma[j], syn[i-j])
		}
		if d == 0 {
			shift += 2
			continue
		}
		scale := f.Div(d, b)
		grown := max(ns, np+shift)
		if 2*l <= i {
			copy(next[:ns], sigma[:ns])
			for j := ns; j < grown; j++ {
				next[j] = 0
			}
			for j, p := range prev[:np] {
				next[j+shift] ^= f.Mul(scale, p)
			}
			sigma, prev, next = next, sigma, prev
			np = ns
			b = d
			l = i + 1 - l
			shift = 1
		} else {
			for j := ns; j < grown; j++ {
				sigma[j] = 0
			}
			for j, p := range prev[:np] {
				sigma[j+shift] ^= f.Mul(scale, p)
			}
			shift++
		}
		ns = grown
		shift++ // step i+1: zero discrepancy
	}
	for ns > 0 && sigma[ns-1] == 0 {
		ns--
	}
	return gf.Poly(sigma[:ns])
}

// elemPosition maps a locator root x = alpha^-p back to its bit position p,
// returning ok=false when the position falls outside the shortened code.
func (c *Code) elemPosition(x gf.Elem) (int, bool) {
	if x == 0 {
		return 0, false
	}
	f := c.field
	p := (f.N() - f.Log(x)) % f.N()
	return p, p < c.n
}

// linearRoot appends the root position of a degree-1 locator s0 + s1*x.
func (c *Code) linearRoot(s0, s1 gf.Elem, positions []int) ([]int, bool) {
	if s0 == 0 || s1 == 0 {
		return positions, false
	}
	p, ok := c.elemPosition(c.field.Div(s0, s1))
	if !ok {
		return positions, false
	}
	return append(positions, p), true
}

// quadraticRoots appends both root positions of s0 + s1*x + s2*x^2 using
// the precomputed y^2+y=k solver. A zero s1 means a repeated root, which a
// separable error locator never has; it is rejected just as the Chien scan
// would come up one root short.
func (c *Code) quadraticRoots(d *decTables, s0, s1, s2 gf.Elem, positions []int) ([]int, bool) {
	f := c.field
	if s0 == 0 || s1 == 0 || s2 == 0 {
		return positions, false
	}
	// Substitute x = (s1/s2) y: y^2 + y = s0*s2 / s1^2.
	k := f.Div(f.Mul(s0, s2), f.Sqr(s1))
	y := d.quad[k]
	if y == quadNone {
		return positions, false
	}
	scale := f.Div(s1, s2)
	p1, ok1 := c.elemPosition(f.Mul(scale, y))
	p2, ok2 := c.elemPosition(f.Mul(scale, y^1))
	if !ok1 || !ok2 {
		return positions, false
	}
	return append(positions, p1, p2), true
}

// cubicRoots appends all three root positions of the cubic locator
// s0 + s1*x + s2*x^2 + s3*x^3 without scanning. Substituting x = y + a
// (a = s2/s3) depresses the cubic to y^3 + p*y + q; with t a cube root of
// a solution z of the resolvent quadratic z^2 + q*z + p^3, the element
// y = t + p/t is a root (in characteristic 2). The remaining two roots
// come out of the deflated quadratic. Returns ok=false — with positions
// untouched — when any step has no solution in the field, which mirrors a
// Chien scan coming up short.
func (c *Code) cubicRoots(d *decTables, s0, s1, s2, s3 gf.Elem, positions []int) ([]int, bool) {
	f := c.field
	if s0 == 0 || s3 == 0 {
		return positions, false // x=0 root or not a cubic: invalid locator
	}
	base := len(positions)
	a := f.Div(s2, s3)
	b := f.Div(s1, s3)
	cc := f.Div(s0, s3)
	p := f.Sqr(a) ^ b
	q := f.Mul(a, b) ^ cc

	var x0 gf.Elem
	switch {
	case p == 0:
		if q == 0 {
			return positions, false // y^3 = 0: triple root, not separable
		}
		y := d.cbrt[q]
		if y == quadNone {
			return positions, false
		}
		x0 = y ^ a
	case q == 0:
		// y * (y^2 + p): take the y=0 root; the deflated quadratic has a
		// repeated root and is rejected below, as separability demands.
		x0 = a
	default:
		k := f.Div(f.Mul(p, f.Sqr(p)), f.Sqr(q))
		w := d.quad[k]
		if w == quadNone {
			return positions, false
		}
		t := d.cbrt[f.Mul(q, w)]
		if t == quadNone {
			return positions, false
		}
		x0 = t ^ f.Div(p, t) ^ a
	}
	// Guard the field-theory edge cases by evaluating the original cubic.
	if x0 == 0 || f.Mul(f.Mul(f.Mul(s3, x0)^s2, x0)^s1, x0)^s0 != 0 {
		return positions, false
	}
	p0, ok := c.elemPosition(x0)
	if !ok {
		return positions, false
	}
	// Deflate by (x + x0) and solve the remaining quadratic in closed form.
	q2 := s3
	q1 := s2 ^ f.Mul(q2, x0)
	q0 := s1 ^ f.Mul(q1, x0)
	positions, ok = c.quadraticRoots(d, q0, q1, q2, append(positions, p0))
	if !ok {
		return positions[:base], false
	}
	return positions, true
}

// quarticRoots appends all four root positions of the quartic locator
// s0 + s1*x + ... + s4*x^4 without scanning. Made monic it reads
// x^4 + a*x^3 + b*x^2 + c*x + d. When a != 0, x = z + e with e^2 = c/a
// removes the linear term, leaving z^4 + a*z^3 + B*z^2 + D, and y = 1/z
// turns that into y^4 + (B/D)*y^2 + (a/D)*y = 1/D; when a == 0 the monic
// quartic already has that shape in x. Either way the left side is linear
// over GF(2) and affineSolve solves it exactly. Returns ok=false — with
// positions untouched — unless there are four distinct roots, all inside
// the shortened code, which mirrors a Chien scan coming up short.
func (c *Code) quarticRoots(s0, s1, s2, s3, s4 gf.Elem, positions []int) ([]int, bool) {
	f := c.field
	if s0 == 0 || s4 == 0 {
		return positions, false // x=0 root or not a quartic: invalid locator
	}
	a := f.Div(s3, s4)
	b := f.Div(s2, s4)
	cc := f.Div(s1, s4)
	dd := f.Div(s0, s4)

	var e, a2, b2, c2 gf.Elem
	if a != 0 {
		if cc != 0 {
			// Square root: halve the logarithm, made even by adding the
			// (odd) group order.
			le := f.Log(f.Div(cc, a))
			if le&1 != 0 {
				le += f.N()
			}
			e = f.Exp(le / 2)
		}
		bz := f.Mul(a, e) ^ b
		dz := f.Mul(f.Mul(f.Mul(e^a, e)^b, e)^cc, e) ^ dd
		if dz == 0 {
			return positions, false // z^2 divides the shifted quartic: repeated root
		}
		a2, b2, c2 = f.Div(bz, dz), f.Div(a, dz), f.Inv(dz)
	} else {
		if cc == 0 {
			return positions, false // a polynomial in x^2 is a square: repeated roots
		}
		a2, b2, c2 = b, cc, dd
	}
	l := [3]gf.Elem{b2, a2, 1}
	y, ker, nk, ok := c.affineSolve(l[:], c2)
	if !ok || nk != 2 {
		return positions, false // four distinct roots need a 2-dimensional kernel
	}
	ys := [4]gf.Elem{y, y ^ ker[0], y ^ ker[1], y ^ ker[0] ^ ker[1]}
	base := len(positions)
	for _, y := range ys {
		x := y // c2 != 0, so y != 0
		if a != 0 {
			x = f.Inv(y) ^ e
		}
		p, ok := c.elemPosition(x)
		if !ok {
			return positions[:base], false
		}
		positions = append(positions, p)
	}
	return positions, true
}

// affineSolve solves L(y) = k for the GF(2)-linear map
// L(y) = l[0]*y + l[1]*y^2 + l[2]*y^4 + ... + l[i]*y^(2^i). The images
// L(alpha^i) of the polynomial basis (alpha^i is the element 1<<i for
// i < m) are eliminated into an echelon basis that remembers each
// vector's preimage; basis elements whose image reduces to zero span the
// kernel. The solutions are exactly y + span(ker[:nk]). It returns
// ok=false when k lies outside the image or the kernel is wider than
// maxKernel.
//
// Term j of L(alpha^i) is alpha^(log l[j] + i*2^j): one load from the
// doubled exp table, with i*2^j mod n advanced by 2^j mod n per basis
// element.
func (c *Code) affineSolve(l []gf.Elem, k gf.Elem) (y gf.Elem, ker [maxKernel]gf.Elem, nk int, ok bool) {
	f := c.field
	n := f.N()
	var lg, e, step [maxDirect]int // log l[j] (-1 for zero), i*2^j mod n, 2^j mod n
	for j, v, st := 0, gf.Elem(0), 1; j < len(l); j++ {
		if v = l[j]; v != 0 {
			lg[j] = f.Log(v)
		} else {
			lg[j] = -1
		}
		step[j] = st
		if st *= 2; st >= n {
			st -= n
		}
	}
	var img, pre [16]gf.Elem // indexed by the image's leading bit; img 0 = empty
	for i := uint(0); i < c.m; i++ {
		u := gf.Elem(1) << i
		var v gf.Elem
		for j := range l {
			if lg[j] >= 0 {
				v ^= c.exp[lg[j]+e[j]]
			}
			e[j] = addMod(e[j], step[j], n)
		}
		for v != 0 {
			h := bits.Len16(v) - 1
			if img[h] == 0 {
				img[h], pre[h] = v, u
				break
			}
			v ^= img[h]
			u ^= pre[h]
		}
		if v == 0 {
			if nk == maxKernel {
				return 0, ker, nk, false
			}
			ker[nk] = u
			nk++
		}
	}
	for k != 0 {
		h := bits.Len16(k) - 1
		if img[h] == 0 {
			return 0, ker, nk, false
		}
		k ^= img[h]
		y ^= pre[h]
	}
	return y, ker, nk, true
}

// addMod returns a+b mod n for a, b in [0, n) without a branch: the
// exponent walks of the root tests wrap at random, so a branch on the
// wrap would be mispredicted half the time.
func addMod(a, b, n int) int {
	s := a + b - n
	return s + n&(s>>63)
}

// affineMultipleRoots appends all root positions of a locator of degree
// 5..maxDirect (its coefficients s, constant term first) without
// scanning. Made monic, the locator sigma of degree d reduces the powers
// 1, x, x^2, x^4, x^8, ... modulo itself; 1, x, x^2 and x^4 are unit
// vectors of the d-dimensional residue space, so the first power x^(2^i)
// whose residue depends on the earlier ones is found by eliminating only
// over the other d-4 coordinates, and it comes within d-4 squarings of
// x^8. The dependency is an affine multiple of sigma:
//
//	A(x) = L(x) + a,   L(x) = sum_j l_j x^(2^j),   sigma | A,
//
// so every root of sigma solves the GF(2)-linear equation L(y) = a.
// affineSolve yields those solutions (typically 2^(d-1) of them, at most
// 2^maxKernel), and each is tested in sigma. It returns ok=false — with
// positions untouched — unless exactly d distinct roots are found, all
// inside the shortened code, which mirrors a Chien scan coming up short.
func (c *Code) affineMultipleRoots(s []gf.Elem, positions []int) ([]int, bool) {
	f := c.field
	d := len(s) - 1
	if s[0] == 0 || s[d] == 0 {
		return positions, false // x=0 root or a smaller degree: invalid locator
	}
	// sigma monic, x^d = sig[0] + sig[1]*x + ... + sig[d-1]*x^(d-1), with
	// the logarithms of its coefficients (-1 for zero) for the reductions.
	var sig [maxDirect]gf.Elem
	var lsig [maxDirect]int
	ls := f.Log(s[d])
	for j, v := range s[:d] {
		lsig[j] = -1
		if v != 0 {
			if lsig[j] = f.Log(v) - ls; lsig[j] < 0 {
				lsig[j] += f.N()
			}
			sig[j] = c.exp[lsig[j]]
		}
	}
	// w is x^(2^i) mod sigma, starting from x^4. Each candidate row holds
	// a residue in entries 0..maxDirect-1 and, from entry maxDirect on,
	// its coefficients over x^8, x^16, ...; rows[:np] are earlier ones in
	// echelon form, row r normalised to 1 at coordinate piv[r].
	const width = maxDirect + maxDirect - 3
	var w [maxDirect]gf.Elem
	w[4] = 1
	var rows [maxDirect - 4][width]gf.Elem
	var piv [maxDirect - 4]int
	np := 0
	for i := 3; ; i++ {
		var sq [2*maxDirect - 1]gf.Elem
		for j, v := range w[:d] {
			sq[2*j] = f.Sqr(v)
		}
		for top := 2*d - 2; top >= d; top-- {
			if v := sq[top]; v != 0 {
				lv := f.Log(v)
				for j, lg := range lsig[:d] {
					if lg >= 0 {
						sq[top-d+j] ^= c.exp[lv+lg]
					}
				}
			}
		}
		copy(w[:d], sq[:d])

		var row [width]gf.Elem
		copy(row[:d], w[:d])
		row[maxDirect+i-3] = 1
		for r := range rows[:np] {
			if v := row[piv[r]]; v != 0 {
				for j, x := range rows[r] {
					row[j] ^= f.Mul(v, x)
				}
			}
		}
		p := 3
		for p < d && (row[p] == 0 || p == 4) {
			p++
		}
		if p < d {
			norm := f.Inv(row[p])
			for j := range row {
				row[j] = f.Mul(row[j], norm)
			}
			rows[np], piv[np] = row, p
			np++
			continue
		}
		// row is a dependency: its residue lives on 1, x, x^2, x^4 alone.
		var l [maxDirect]gf.Elem
		l[0], l[1], l[2] = row[1], row[2], row[4]
		copy(l[3:i+1], row[maxDirect:maxDirect+i-2])
		return c.affineRootsOf(sig, d, l[:i+1], row[0], positions)
	}
}

// affineRootsOf enumerates the solutions of L(y) = a (L given by its
// linearized coefficients l) and appends the positions of those that are
// roots of the monic degree-d locator x^d + sig[d-1]*x^(d-1) + ... +
// sig[0]; see affineMultipleRoots. A root test sums the locator's terms
// alpha^(log sig[j] + j*log y) as independent loads from the doubled exp
// table. Each root found deflates the locator, so later tests sum fewer
// terms, and the walk stops at the d-th root.
func (c *Code) affineRootsOf(sig [maxDirect]gf.Elem, d int, l []gf.Elem, a gf.Elem, positions []int) ([]int, bool) {
	f := c.field
	n := f.N()
	y, ker, nk, ok := c.affineSolve(l, a)
	if !ok || 1<<nk < d {
		return positions, false
	}
	base := len(positions)
	var lsig [maxDirect]int // log sig[j], -1 for zero
	logs := func() {
		for j, v := range sig[:d] {
			lsig[j] = -1
			if v != 0 {
				lsig[j] = f.Log(v)
			}
		}
	}
	logs()
	for g := 0; ; {
		if y != 0 {
			ly, e := f.Log(y), 0
			var v gf.Elem
			for _, lg := range lsig[:d] {
				if lg >= 0 {
					v ^= c.exp[lg+e]
				}
				e = addMod(e, ly, n)
			}
			if v^c.exp[e] == 0 { // plus the monic top term, y^d
				p, ok := c.elemPosition(y)
				if !ok {
					return positions[:base], false
				}
				positions = append(positions, p)
				// Deflate: sig /= (x + y), synthetic division from the top.
				for j, q := d-1, gf.Elem(1); j > 0; j-- {
					q = sig[j] ^ f.Mul(y, q)
					sig[j] = q
				}
				copy(sig[:d-1], sig[1:d])
				if d--; d == 0 {
					return positions, true
				}
				logs()
			}
		}
		// Next candidate in Gray-code order: one kernel vector per step.
		g++
		if g == 1<<nk {
			return positions[:base], false
		}
		y ^= ker[bits.TrailingZeros(uint(g))]
	}
}

// directRoots appends the root positions of a locator of degree
// 1..maxDirect (its coefficients, constant term first) without scanning:
// closed forms up to degree four, an affine multiple above. It returns
// ok=false — with positions untouched — when the locator does not have
// that many distinct roots inside the shortened code.
func (c *Code) directRoots(d *decTables, s []gf.Elem, positions []int) ([]int, bool) {
	switch len(s) {
	case 2:
		return c.linearRoot(s[0], s[1], positions)
	case 3:
		return c.quadraticRoots(d, s[0], s[1], s[2], positions)
	case 4:
		return c.cubicRoots(d, s[0], s[1], s[2], s[3], positions)
	case 5:
		return c.quarticRoots(s[0], s[1], s[2], s[3], s[4], positions)
	}
	if len(s) <= maxDirect+1 {
		return c.affineMultipleRoots(s, positions)
	}
	return positions, false
}

// findRoots locates all roots of sigma, of degree at most t (Decode
// rejects higher ones first), inside the shortened code: solved directly
// up to degree maxDirect, and above that by a blocked Chien scan that
// deflates the locator by every root it meets until the direct solvers
// apply. It returns ok=false unless exactly deg(sigma) positions are
// found, as an exhaustive Chien search would.
func (c *Code) findRoots(sigma gf.Poly, sc *decodeScratch) ([]int, bool) {
	deg := gf.PolyDeg(sigma)
	if deg <= 0 {
		return nil, deg == 0
	}
	d := c.decTables()
	f := c.field
	n := f.N()
	exp := c.exp
	positions := sc.positions[:0]
	work := sc.sigmaWork[:deg+1]
	copy(work, sigma[:deg+1])

	var acc [scanBlock]gf.Elem
	for p := 0; ; {
		if deg <= maxDirect {
			var ok bool
			if positions, ok = c.directRoots(d, work, positions); ok {
				sort.Ints(positions)
				sc.positions = positions[:0]
				return positions, true
			}
			if deg <= 2 {
				return nil, false
			}
			// A failed direct solve falls through to the scan, which
			// either finds a root the solver missed or proves there are
			// too few.
		}
		if p >= c.n {
			return nil, false // fewer in-range roots than deg(sigma)
		}
		// One block of the scan: acc[q] = work(alpha^-(p+q)). Term j at
		// position p+q is alpha^(log work[j] - (p+q)*j); with the q = 0
		// exponent reduced into [n, 2n) the block's loads walk down the
		// doubled exp table by j per position, independent of each other
		// and (scanBlk is sized for it) never below index zero.
		blk := min(d.scanBlk, c.n-p)
		block := acc[:blk]
		for q := range block {
			block[q] = work[0]
		}
		for j := 1; j <= deg; j++ {
			if work[j] == 0 {
				continue
			}
			idx := n + (f.Log(work[j])+n-p*j%n)%n
			for q := range block {
				block[q] ^= exp[idx]
				idx -= j
			}
		}
		next := p + blk
		for q, v := range block {
			if v != 0 {
				continue
			}
			// Root at position p+q. Deflate: work /= (x + root), synthetic
			// division from the top; the remainder work[0] is zero by
			// construction. The block's later zeros are roots of the
			// quotient too, so the walk over it continues until the
			// direct solvers can take the rest.
			positions = append(positions, p+q)
			root := f.Exp(-(p + q))
			for j := deg - 1; j >= 0; j-- {
				work[j] ^= f.Mul(work[j+1], root)
			}
			copy(work, work[1:deg+1])
			deg--
			work = work[:deg+1]
			if deg <= maxDirect {
				next = p + q + 1
				break
			}
		}
		p = next
	}
}
