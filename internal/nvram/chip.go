package nvram

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"chipkillpm/internal/bch"
	"chipkillpm/internal/gf"
)

// Geometry describes one NVRAM chip's array organisation. Each row holds
// RowDataBytes of data followed by one VLEW code region per VLEWDataBytes
// of data, mirroring Fig 6: code bits live in the same row as the data
// they protect.
type Geometry struct {
	Banks         int // banks per chip
	RowsPerBank   int
	RowDataBytes  int // data bytes per row; must be a multiple of VLEWDataBytes
	VLEWDataBytes int // data bytes per VLEW (256 in the paper)
	VLEWCodeBytes int // code bytes per VLEW (33 in the paper)
}

// Validate checks the geometry for internal consistency.
func (g Geometry) Validate() error {
	if g.Banks < 1 || g.RowsPerBank < 1 || g.RowDataBytes < 1 {
		return fmt.Errorf("nvram: geometry has non-positive dimensions: %+v", g)
	}
	if g.VLEWDataBytes < 1 || g.RowDataBytes%g.VLEWDataBytes != 0 {
		return fmt.Errorf("nvram: row data bytes %d not a multiple of VLEW data bytes %d",
			g.RowDataBytes, g.VLEWDataBytes)
	}
	if g.VLEWCodeBytes < 0 {
		return fmt.Errorf("nvram: negative VLEW code bytes")
	}
	return nil
}

// VLEWsPerRow returns the number of VLEWs each row holds.
func (g Geometry) VLEWsPerRow() int { return g.RowDataBytes / g.VLEWDataBytes }

// RowTotalBytes returns the physical row size: data plus code regions.
func (g Geometry) RowTotalBytes() int {
	return g.RowDataBytes + g.VLEWsPerRow()*g.VLEWCodeBytes
}

// DataBytes returns the chip's usable data capacity.
func (g Geometry) DataBytes() int64 {
	return int64(g.Banks) * int64(g.RowsPerBank) * int64(g.RowDataBytes)
}

// EURRegisters returns the number of ECC Update Registerfile entries the
// chip needs: one per VLEW of each bank's single open row (B * R/256 in
// the paper's notation).
func (g Geometry) EURRegisters() int { return g.Banks * g.VLEWsPerRow() }

// Stats aggregates a chip's activity counters.
type Stats struct {
	DataWrites        int64 // XOR-write operations received
	RawWrites         int64 // conventional (overwrite) writes
	VLEWCodeWrites    int64 // EUR registers drained to the array (code-bit write events)
	RowActivations    int64
	RowCloses         int64
	BitErrorsInjected int64
	BitsWritten       int64 // physical data bits written (for wear accounting)
	FailedAccesses    int64 // reads served while the chip was failed (garbage returned)
}

// CFactor returns the ratio between VLEW code-bit writes and data writes —
// the paper's C factor (Fig 15). Lower is better; row-buffer locality
// lets the EUR coalesce many data writes into one code write.
func (s Stats) CFactor() float64 {
	if s.DataWrites == 0 {
		return 0
	}
	return float64(s.VLEWCodeWrites) / float64(s.DataWrites)
}

// Chip is one NVRAM die. It stores real bytes, injects real bit errors,
// embeds a linear BCH encoder for VLEW code bits and an EUR that coalesces
// code-bit updates per open-row VLEW until the row closes (Fig 11).
//
// Each bank keeps its own state record (see bank): the open row, the EUR
// registers and slot bounds of that row's VLEWs, the write chain's scratch
// and the bank's activity counters, padded so that no two banks share a
// cache line. Stats folds the records.
//
// Concurrency contract (mirrors real hardware, where each bank operates
// independently behind its own row buffer):
//
//   - The bank-addressed methods (ReadDataInto, ReadVLEWInto, ReadCodeInto,
//     WriteData, WriteXOR, WriteDataRaw, WriteVLEW, WriteVLEWRow, XORCode,
//     OpenRow, CloseRow, and the kernels ReadDataAt, WriteDataAt and
//     WriteXORAt, whose bank is the one their Addr names) may run
//     concurrently so long as no two goroutines touch the same bank at
//     the same time: all mutable per-bank state
//     (cells rows, row wear and the bank record with its counters) is
//     disjoint across banks, so the write path needs no atomics. The
//     sharded engine relies on this by assigning each bank to exactly one
//     shard lock. ReadVLEWInto, WriteVLEW and WriteVLEWRow also take the
//     chip's mutex, so scrub workers may share a bank among themselves —
//     the parallel boot scrub fans workers out across (bank, row) units.
//   - FailedAccesses is safe at any time, against any traffic.
//   - Stats is a snapshot taken while no bank operation is in flight.
//   - Fault-injection and maintenance methods (Fail, Repair, CloseAllRows,
//     InjectRetentionErrors, WearOutBit, FlipDataBit, FlipCodeBit) require
//     full quiescence: no concurrent access of any kind.
//
// Decoding (the expensive part of a scrub) happens outside the chip and
// needs no lock.
type Chip struct {
	// mu guards the *VLEW methods and the failed-read rng.
	//chipkill:lock nvram.chip level=60
	mu   sync.Mutex
	geom Geometry
	// The address arithmetic is precomputed from geom, so no access
	// divides: rowStride is the physical row size (RowTotalBytes), and
	// vlewShift is log2(VLEWDataBytes), or -1 when that is not a power of
	// two (the paper's 256 B is) and a VLEW index takes a division.
	rowStride int
	vlewShift int
	enc       *bch.Code // VLEW encoder; nil disables in-chip encoding
	cells     []byte    // banks x rows x RowTotalBytes
	rng       *rand.Rand
	failed    bool
	banks     []bank
	rowWear   []int64           // writes per row, for wear accounting
	stuck     map[int]stuckCell // worn-out cells: writes cannot change them
	// bitErrorsInjected is only written by the quiescent injection hooks.
	bitErrorsInjected int64
	// failedAccesses is read by health supervisors while traffic runs.
	//chipkill:atomic
	failedAccesses atomic.Int64
}

// cacheLine is the coherence granule bank records are padded against.
const cacheLine = 64

// bank is one bank's state record. Only the goroutine that owns the bank
// under the concurrency contract touches it, so its counters are plain
// integers; the trailing pad, and the slack after each bank's slots and
// byte scratch, keep every other bank's state off its cache lines.
type bank struct {
	openRow int // -1 when closed
	// The EUR: one register of eur and one slot per VLEW of the open row.
	// A register accumulates the *raw data delta* of its VLEW — not an
	// encoded code update — and the chip runs the BCH encoder once when
	// the slot drains at row close. BCH is linear, so encoding the
	// accumulated delta equals XORing the per-write encodes, and the
	// deferred scheme pays one EncodeDeltaInto per drain instead of one per
	// write. The slot bounds the touched byte range so the drain encodes
	// only what changed; a register is kept zeroed while its slot is
	// empty, so draining is test + encode with no map churn.
	eur    []byte    // VLEWsPerRow x VLEWDataBytes
	slots  []eurSlot // VLEWsPerRow
	parity []byte    // EncodeDeltaInto output, enc.ParityBytes()
	delta  []byte    // WriteData delta staging, RowDataBytes

	dataWrites, rawWrites, codeWrites int64
	activations, closes, bitsWritten  int64

	_ [cacheLine]byte
}

// eurSlot is the touched byte range [lo, hi) of one EUR register. hi is 0
// while the slot is empty: an armed slot covers at least one byte.
type eurSlot struct{ lo, hi int32 }

// widen arms the slot or grows it to cover [lo, hi).
func (s *eurSlot) widen(lo, hi int32) {
	if s.hi == 0 {
		s.lo, s.hi = lo, hi
		return
	}
	s.lo = min(s.lo, lo)
	s.hi = max(s.hi, hi)
}

// Addr is a resolved data access: a bank, row and byte range of the row's
// data, with the offsets the chip's kernels derive from them. The chips
// of a rank share one geometry, so the rank resolves a lockstep access
// once (Resolve) and hands the same Addr to every chip's kernel
// (ReadDataAt, WriteDataAt, WriteXORAt). Only Resolve fills one in, so a
// kernel never sees an unchecked address.
type Addr struct {
	bank, row int
	off, n    int // the access covers [off, off+n) of the row's data
	cell      int // off's index in the cell array
	wear      int // the row's index in rowWear
	vlew      int // the VLEW holding off, which is also its EUR slot
	vOff      int // off within that VLEW
}

// stuckCell describes permanently faulty bits of one cell byte: the bits
// in mask always read back as the corresponding bits of value.
type stuckCell struct {
	mask, value byte
}

// NewChip builds a chip with the given geometry. enc may be nil for chips
// modelled without an embedded encoder (e.g. DRAM baselines). seed makes
// the chip's stochastic behaviour reproducible.
func NewChip(geom Geometry, enc *bch.Code, seed int64) (*Chip, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if enc != nil {
		if enc.DataBytes() != geom.VLEWDataBytes {
			return nil, fmt.Errorf("nvram: encoder protects %dB, geometry VLEW holds %dB",
				enc.DataBytes(), geom.VLEWDataBytes)
		}
		if enc.ParityBytes() > geom.VLEWCodeBytes {
			return nil, fmt.Errorf("nvram: encoder needs %dB code, geometry provides %dB",
				enc.ParityBytes(), geom.VLEWCodeBytes)
		}
	}
	c := &Chip{
		geom:      geom,
		rowStride: geom.RowTotalBytes(),
		vlewShift: -1,
		enc:       enc,
		cells:     make([]byte, int64(geom.Banks)*int64(geom.RowsPerBank)*int64(geom.RowTotalBytes())),
		rng:       rand.New(rand.NewSource(seed)),
		banks:     make([]bank, geom.Banks),
		rowWear:   make([]int64, geom.Banks*geom.RowsPerBank),
		stuck:     make(map[int]stuckCell),
	}
	if v := geom.VLEWDataBytes; v&(v-1) == 0 {
		c.vlewShift = bits.TrailingZeros(uint(v))
	}
	parity := 0
	if enc != nil {
		parity = enc.ParityBytes()
	}
	// Every bank's scratch is allocated up front, so the write path never
	// allocates. Each allocation carries a cache line of unused capacity,
	// which keeps whatever the allocator places next, another bank's
	// scratch included, off the lines this bank writes.
	rdb, vpr := geom.RowDataBytes, geom.VLEWsPerRow()
	for i := range c.banks {
		b := &c.banks[i]
		b.openRow = -1
		b.slots = make([]eurSlot, vpr, vpr+cacheLine/8)
		s := make([]byte, 2*rdb+parity, 2*rdb+parity+cacheLine)
		b.eur, b.delta, b.parity = s[:rdb:rdb], s[rdb:2*rdb:2*rdb], s[2*rdb:]
	}
	return c, nil
}

// Geometry returns the chip's geometry.
func (c *Chip) Geometry() Geometry { return c.geom }

// Stats folds the banks' counters into one snapshot. The bank counters are
// plain integers owned by whoever owns the bank, so the snapshot must be
// taken while no bank operation is in flight; FailedAccesses is the one
// counter that may be read during traffic.
func (c *Chip) Stats() Stats {
	s := Stats{BitErrorsInjected: c.bitErrorsInjected, FailedAccesses: c.FailedAccesses()}
	for i := range c.banks {
		b := &c.banks[i]
		s.DataWrites += b.dataWrites
		s.RawWrites += b.rawWrites
		s.VLEWCodeWrites += b.codeWrites
		s.RowActivations += b.activations
		s.RowCloses += b.closes
		s.BitsWritten += b.bitsWritten
	}
	return s
}

// FailedAccesses returns the number of reads served while the chip was
// failed. Unlike Stats it is safe to call while traffic runs.
func (c *Chip) FailedAccesses() int64 { return c.failedAccesses.Load() }

// Healthy reports whether the chip has not suffered a chip-level failure.
func (c *Chip) Healthy() bool { return !c.failed }

// Fail marks the chip as failed: reads return garbage, writes are dropped.
// Production code should go through Rank.FailChip, which additionally
// maintains the rank's failed-chip count for the engine's lock-free read
// gate; calling Fail directly leaves that count stale.
func (c *Chip) Fail() { c.failed = true }

// CellArray exposes the chip's backing cell array for lock-free readers.
// The engine's seqlock-validated clean-read path gathers data bytes
// straight from this slice between sequence checks; a torn read is
// detected by the sequence re-check and retried, never consumed. Callers
// must not write through the returned slice.
func (c *Chip) CellArray() []byte { return c.cells }

// Repair clears a chip failure (models replacing/remapping the device);
// contents are zeroed, as a fresh device would be.
func (c *Chip) Repair() {
	c.failed = false
	for i := range c.cells {
		c.cells[i] = 0
	}
	for i := range c.banks {
		b := &c.banks[i]
		zeroBytes(b.eur)
		clear(b.slots)
	}
}

func zeroBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// rowBase returns the cell-array offset of a row, panicking on an
// out-of-range bank or row.
func (c *Chip) rowBase(bank, row int) int {
	c.checkAddr(bank, row)
	return (bank*c.geom.RowsPerBank + row) * c.rowStride
}

func (c *Chip) checkAddr(bank, row int) {
	if bank < 0 || bank >= c.geom.Banks || row < 0 || row >= c.geom.RowsPerBank {
		panic(fmt.Sprintf("nvram: address out of range: bank=%d row=%d (geometry %dx%d)",
			bank, row, c.geom.Banks, c.geom.RowsPerBank))
	}
}

// Resolve checks an access to the n data bytes at byte offset off of a
// row and stores its resolution in a, for the kernels ReadDataAt,
// WriteDataAt and WriteXORAt. Chips of the same geometry resolve an
// access alike, so one Addr serves every chip of a rank. An out-of-range
// bank, row or byte range panics as the bank-addressed methods do.
//
//chipkill:noalloc
func (c *Chip) Resolve(a *Addr, bank, row, off, n int) {
	c.resolve(a, bank, row, off, n, "access")
}

// resolve is Resolve with the operation named in the range panic.
//
//chipkill:noalloc
func (c *Chip) resolve(a *Addr, bank, row, off, n int, op string) {
	base := c.rowBase(bank, row)
	if off < 0 || off+n > c.geom.RowDataBytes {
		panic(fmt.Sprintf("nvram: %s [%d,%d) outside row data %d", op, off, off+n, c.geom.RowDataBytes))
	}
	a.bank, a.row, a.off, a.n = bank, row, off, n
	a.cell, a.wear = base+off, bank*c.geom.RowsPerBank+row
	if c.vlewShift >= 0 {
		a.vlew, a.vOff = off>>c.vlewShift, off&(c.geom.VLEWDataBytes-1)
	} else {
		a.vlew, a.vOff = off/c.geom.VLEWDataBytes, off%c.geom.VLEWDataBytes
	}
}

// span returns the access's bytes of the cell array, panicking when buf
// is not the length the access was resolved for.
func (c *Chip) span(a *Addr, buf []byte) []byte {
	if len(buf) != a.n {
		panic("nvram: buffer length differs from the resolved access")
	}
	return c.cells[a.cell : a.cell+a.n]
}

// xorInto XORs src into dst, which is as long. An 8-byte slice, one
// chip's share of a block, is a single word operation.
func xorInto(dst, src []byte) {
	if len(src) != 8 {
		gf.XORBytes(dst, src)
	} else {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
	}
}

// ReadDataInto fills dst with len(dst) data bytes starting at byte offset
// off within the row. A failed chip fills dst with garbage (the rng draw
// is taken under the chip mutex so concurrent shards keep the stream
// well-defined).
//
//chipkill:noalloc
func (c *Chip) ReadDataInto(dst []byte, bank, row, off int) {
	var a Addr
	c.resolve(&a, bank, row, off, len(dst), "data read")
	c.ReadDataAt(dst, &a)
}

// ReadDataAt is ReadDataInto's kernel: it fills dst, which must be as
// long as the access, from a resolved address.
//
//chipkill:noalloc
func (c *Chip) ReadDataAt(dst []byte, a *Addr) {
	src := c.span(a, dst)
	if c.failed {
		c.failedAccesses.Add(1)
		c.mu.Lock()
		c.rng.Read(dst)
		c.mu.Unlock()
		return
	}
	copy(dst, src)
}

// WriteData overwrites data bytes conventionally (raw values on the bus).
// Used by scrub write-back and by baseline schemes. VLEW code bits for the
// affected region are updated through the in-chip encoder when present,
// bypassing the EUR (scrub-style writes are not row-locality optimised).
func (c *Chip) WriteData(bank, row, off int, data []byte) {
	var a Addr
	c.resolve(&a, bank, row, off, len(data), "data write")
	c.WriteDataAt(&a, data)
}

// WriteDataAt is WriteData's kernel: it overwrites the resolved access
// with data, which must be as long.
//
//chipkill:noalloc
func (c *Chip) WriteDataAt(a *Addr, data []byte) {
	old := c.span(a, data)
	b := &c.banks[a.bank]
	b.rawWrites++
	if c.failed {
		return
	}
	if c.enc != nil {
		// Update code bits from the delta before overwriting; the delta is
		// staged in the bank's scratch (callers own the bank, per the
		// concurrency contract) so scrub write-backs do not allocate.
		delta := b.delta[:len(data)]
		copy(delta, old)
		xorInto(delta, data)
		c.encodeCodeDelta(a, delta)
	}
	copy(old, data)
	c.applyStuck(a.cell, len(data))
	b.bitsWritten += int64(8 * len(data))
	c.rowWear[a.wear]++
}

// WriteXOR receives the bitwise sum of old and new data (the paper's
// modified write request) and applies it: new data is recovered by XORing
// the stored old data, and the VLEW code-bit update is accumulated in the
// EUR until row close. The target row is opened implicitly, closing any
// other open row in the bank (draining its EUR registers).
//
//chipkill:noalloc
func (c *Chip) WriteXOR(bank, row, off int, delta []byte) {
	var a Addr
	c.resolve(&a, bank, row, off, len(delta), "XOR write")
	c.WriteXORAt(&a, delta)
}

// WriteXORAt is WriteXOR's kernel: it applies delta, which must be as
// long as the access, at a resolved address. For one chip's 8-byte share
// of a block that is one word XOR into the cells and one into the open
// row's EUR register, a slot widen, and the bank's counters.
//
//chipkill:noalloc
func (c *Chip) WriteXORAt(a *Addr, delta []byte) {
	cells := c.span(a, delta)
	b := &c.banks[a.bank]
	if b.openRow != a.row {
		c.activate(a.bank, a.row)
	}
	b.dataWrites++
	if c.failed {
		return
	}
	xorInto(cells, delta)
	c.applyStuck(a.cell, len(delta))
	b.bitsWritten += int64(8 * len(delta))
	c.rowWear[a.wear]++
	if c.enc == nil {
		return
	}
	// Defer the code update: accumulate the raw data delta in the EUR and
	// widen the touched range. One EncodeDeltaInto over the accumulated delta
	// at drain time equals the XOR of the per-write encodes (BCH
	// linearity), at a fraction of the cost. The delta may span several
	// VLEWs; off is its offset in the row's data, which is also its
	// offset in the bank's EUR registers.
	off, v, inOff := a.off, a.vlew, a.vOff
	for len(delta) > 0 {
		n := min(c.geom.VLEWDataBytes-inOff, len(delta))
		xorInto(b.eur[off:off+n], delta[:n])
		b.slots[v].widen(int32(inOff), int32(inOff+n))
		delta = delta[n:]
		off, v, inOff = off+n, v+1, 0
	}
}

// encodeCodeDelta folds the data delta of a resolved access into its
// VLEWs' stored code bits at once, bypassing the EUR.
//
//chipkill:noalloc
func (c *Chip) encodeCodeDelta(a *Addr, delta []byte) {
	b := &c.banks[a.bank]
	v, inOff := a.vlew, a.vOff
	for len(delta) > 0 {
		n := min(c.geom.VLEWDataBytes-inOff, len(delta))
		c.enc.EncodeDeltaInto(b.parity, delta[:n], inOff*8)
		gf.XORBytes(c.vlewCode(a.cell-a.off, v), b.parity)
		b.codeWrites++
		delta = delta[n:]
		v, inOff = v+1, 0
	}
}

// drainSlot folds bank's armed EUR slot v into its VLEW's stored code
// bits: a single EncodeDeltaInto over the slot's accumulated raw delta, XORed
// into the array. Counts one VLEWCodeWrites event per drain regardless of
// chip health (a failed chip still "performs" the array write; it just has
// no effect), exactly as the per-slot drain always has. The caller must
// hold whatever exclusion the access path requires and must have checked
// that the slot is armed.
//
//chipkill:noalloc
func (c *Chip) drainSlot(bank, row, v int) {
	b := &c.banks[bank]
	s := &b.slots[v]
	reg := b.eur[v*c.geom.VLEWDataBytes:]
	if !c.failed {
		c.enc.EncodeDeltaInto(b.parity, reg[s.lo:s.hi], int(s.lo)*8)
		gf.XORBytes(c.vlewCode((bank*c.geom.RowsPerBank+row)*c.rowStride, v), b.parity)
	}
	b.codeWrites++
	zeroBytes(reg[s.lo:s.hi])
	*s = eurSlot{}
}

// clearSlot discards bank's EUR slot v without draining it (the slot's
// VLEW is about to be overwritten wholesale).
func (c *Chip) clearSlot(bank, v int) {
	b := &c.banks[bank]
	s := &b.slots[v]
	zeroBytes(b.eur[v*c.geom.VLEWDataBytes:][s.lo:s.hi])
	*s = eurSlot{}
}

// vlewCode returns the stored code-bit slice of VLEW v of the row at
// cell offset base (aliases cells).
func (c *Chip) vlewCode(base, v int) []byte {
	start := base + c.geom.RowDataBytes + v*c.geom.VLEWCodeBytes
	return c.cells[start : start+c.geom.VLEWCodeBytes]
}

// OpenRow activates a row in a bank, closing (and EUR-draining) any other
// open row first. Opening an already-open row is a no-op (a row hit).
//
//chipkill:noalloc
func (c *Chip) OpenRow(bank, row int) {
	c.checkAddr(bank, row)
	if c.banks[bank].openRow != row {
		c.activate(bank, row)
	}
}

// activate opens a row other than the bank's open one: a row miss, which
// closes (and EUR-drains) the open row first. The caller has checked the
// address.
//
//chipkill:noalloc
func (c *Chip) activate(bank, row int) {
	b := &c.banks[bank]
	if b.openRow >= 0 {
		c.CloseRow(bank)
	}
	b.openRow = row
	b.activations++
}

// CloseRow closes the bank's open row, draining every nonempty EUR
// register belonging to it into the row's code region (Fig 11: "when
// receiving a row close request, an NVRAM chip must first drain the
// coalesced ECC updates").
//
//chipkill:noalloc
func (c *Chip) CloseRow(bank int) {
	if bank < 0 || bank >= c.geom.Banks {
		panic(fmt.Sprintf("nvram: bank %d out of range", bank))
	}
	b := &c.banks[bank]
	row := b.openRow
	if row < 0 {
		return
	}
	for v := range b.slots {
		if b.slots[v].hi != 0 {
			c.drainSlot(bank, row, v)
		}
	}
	b.openRow = -1
	b.closes++
}

// CloseAllRows closes every bank's open row; used before scrubbing so that
// stored code bits are consistent with stored data.
func (c *Chip) CloseAllRows() {
	for b := 0; b < c.geom.Banks; b++ {
		c.CloseRow(b)
	}
}

// ReadVLEWInto fills caller-owned data (VLEWDataBytes) and code
// (VLEWCodeBytes) buffers with a VLEW's stored bytes. Pending EUR updates
// for that VLEW are drained first so the pair is internally consistent. A
// failed chip fills both with garbage. Safe for concurrent use (see the
// Chip concurrency contract). The scrub loops and the controller's
// VLEW-fallback correction path reuse one pair of buffers across a pass.
//
//chipkill:noalloc
func (c *Chip) ReadVLEWInto(data, code []byte, bank, row, v int) {
	if len(data) != c.geom.VLEWDataBytes || len(code) != c.geom.VLEWCodeBytes {
		panic("nvram: ReadVLEWInto size mismatch")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	base := c.rowBase(bank, row)
	if v < 0 || v >= c.geom.VLEWsPerRow() {
		panic(fmt.Sprintf("nvram: VLEW index %d out of range", v))
	}
	if c.failed {
		c.failedAccesses.Add(1)
		c.rng.Read(data)
		c.rng.Read(code)
		return
	}
	if b := &c.banks[bank]; b.openRow == row && b.slots[v].hi != 0 {
		c.drainSlot(bank, row, v)
	}
	copy(data, c.cells[base+v*c.geom.VLEWDataBytes:])
	copy(code, c.vlewCode(base, v))
}

// WriteVLEW overwrites a VLEW's data and code regions directly; used by
// boot-time scrub write-back and ECC leveling. Safe for concurrent use
// (see the Chip concurrency contract).
func (c *Chip) WriteVLEW(bank, row, v int, data, code []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	base := c.rowBase(bank, row)
	if len(data) != c.geom.VLEWDataBytes || len(code) != c.geom.VLEWCodeBytes {
		panic("nvram: WriteVLEW size mismatch")
	}
	b := &c.banks[bank]
	b.rawWrites++
	if c.failed {
		return
	}
	// An EUR slot is addressed by (bank, vlew) and belongs to the bank's
	// OPEN row. Discard it only when overwriting that row's word; writing
	// a closed row (patrol fixing a cold VLEW while demand traffic holds a
	// different row open) must leave the open row's pending code update
	// armed, or its VLEW is left with stale code bits.
	if b.openRow == row {
		c.clearSlot(bank, v)
	}
	copy(c.cells[base+v*c.geom.VLEWDataBytes:], data)
	c.applyStuck(base+v*c.geom.VLEWDataBytes, len(data))
	copy(c.vlewCode(base, v), code)
	b.bitsWritten += int64(8 * (len(data) + len(code)))
	c.rowWear[bank*c.geom.RowsPerBank+row]++
}

// WriteVLEWRow overwrites several VLEWs of one row in a single locked
// operation — the scrubs' row-batched write-back. vs lists the VLEW
// indices to write; datas[i] and codes[i] hold the contents for vs[i].
// Counters advance exactly as len(vs) individual WriteVLEW calls would,
// so batching is invisible to stats-based oracles; only the per-VLEW
// lock/unlock cost is amortised.
func (c *Chip) WriteVLEWRow(bank, row int, vs []int, datas, codes [][]byte) {
	if len(vs) != len(datas) || len(vs) != len(codes) {
		panic("nvram: WriteVLEWRow length mismatch")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	base := c.rowBase(bank, row)
	b := &c.banks[bank]
	for i, v := range vs {
		data, code := datas[i], codes[i]
		if v < 0 || v >= c.geom.VLEWsPerRow() {
			panic(fmt.Sprintf("nvram: VLEW index %d out of range", v))
		}
		if len(data) != c.geom.VLEWDataBytes || len(code) != c.geom.VLEWCodeBytes {
			panic("nvram: WriteVLEWRow size mismatch")
		}
		b.rawWrites++
		if c.failed {
			continue
		}
		if b.openRow == row { // see WriteVLEW: the slot is the open row's
			c.clearSlot(bank, v)
		}
		copy(c.cells[base+v*c.geom.VLEWDataBytes:], data)
		c.applyStuck(base+v*c.geom.VLEWDataBytes, len(data))
		copy(c.vlewCode(base, v), code)
		b.bitsWritten += int64(8 * (len(data) + len(code)))
		c.rowWear[bank*c.geom.RowsPerBank+row]++
	}
}

// InjectRetentionErrors flips stored bits across the whole array (data and
// code regions) with the given per-bit probability, modelling errors
// accumulated since the last refresh. The number of flips is sampled
// binomially and positions are uniform; it returns the number of bits
// flipped. Pending EUR state is unaffected (registers are SRAM).
func (c *Chip) InjectRetentionErrors(rber float64) int {
	if c.failed || rber <= 0 {
		return 0
	}
	totalBits := int64(len(c.cells)) * 8
	flips := sampleBinomial(c.rng, totalBits, rber)
	for i := int64(0); i < flips; i++ {
		p := c.rng.Int63n(totalBits)
		c.cells[p/8] ^= 1 << uint(p%8)
	}
	c.bitErrorsInjected += flips
	return int(flips)
}

// WearOutBit makes one data bit permanently stuck at its current value
// (the dominant NVRAM wear failure mode [86]): subsequent writes cannot
// change it, so a write-then-verify read exposes the block as worn.
func (c *Chip) WearOutBit(bank, row, byteOff int, bit uint) {
	base := c.rowBase(bank, row)
	if byteOff < 0 || byteOff >= c.geom.RowDataBytes {
		panic(fmt.Sprintf("nvram: WearOutBit offset %d outside row data", byteOff))
	}
	idx := base + byteOff
	mask := byte(1 << (bit % 8))
	sc := c.stuck[idx]
	sc.mask |= mask
	sc.value = (sc.value &^ mask) | (c.cells[idx] & mask)
	c.stuck[idx] = sc
}

// applyStuck re-imposes stuck cells over a just-written range.
func (c *Chip) applyStuck(start, n int) {
	if len(c.stuck) == 0 {
		return
	}
	for i := start; i < start+n; i++ {
		if sc, ok := c.stuck[i]; ok {
			c.cells[i] = (c.cells[i] &^ sc.mask) | sc.value
		}
	}
}

// WriteDataRaw overwrites data bytes without touching VLEW code bits.
// It exists for controllers that manage code bits themselves — notably
// degraded-mode operation (Sec V-E), where the per-chip VLEW slots are
// repurposed for rank-striped VLEWs that an individual chip cannot
// maintain.
func (c *Chip) WriteDataRaw(bank, row, off int, data []byte) {
	var a Addr
	c.resolve(&a, bank, row, off, len(data), "raw write")
	cells := c.span(&a, data)
	b := &c.banks[bank]
	b.rawWrites++
	if c.failed {
		return
	}
	copy(cells, data)
	c.applyStuck(a.cell, len(data))
	b.bitsWritten += int64(8 * len(data))
	c.rowWear[a.wear]++
}

// XORCode XORs delta into a VLEW code slot; the degraded-mode
// controller's code-maintenance primitive.
func (c *Chip) XORCode(bank, row, v int, delta []byte) {
	if v < 0 || v >= c.geom.VLEWsPerRow() {
		panic(fmt.Sprintf("nvram: VLEW index %d out of range", v))
	}
	if len(delta) > c.geom.VLEWCodeBytes {
		panic("nvram: code delta too long")
	}
	if c.failed {
		return
	}
	gf.XORBytes(c.vlewCode(c.rowBase(bank, row), v), delta)
	c.banks[bank].bitsWritten += int64(8 * len(delta))
}

// ReadCodeInto fills dst (VLEWCodeBytes) with a VLEW code slot. A failed
// chip fills it with garbage.
//
//chipkill:noalloc
func (c *Chip) ReadCodeInto(dst []byte, bank, row, v int) {
	if v < 0 || v >= c.geom.VLEWsPerRow() {
		panic(fmt.Sprintf("nvram: VLEW index %d out of range", v))
	}
	if len(dst) != c.geom.VLEWCodeBytes {
		panic("nvram: ReadCodeInto size mismatch")
	}
	if c.failed {
		c.failedAccesses.Add(1)
		c.mu.Lock()
		c.rng.Read(dst)
		c.mu.Unlock()
		return
	}
	copy(dst, c.vlewCode(c.rowBase(bank, row), v))
}

// FlipDataBit flips one stored data bit directly in the array, without
// updating VLEW code bits — a targeted fault-injection hook complementing
// the statistical InjectRetentionErrors. byteOff addresses the row's data
// region; bit selects the bit within that byte.
func (c *Chip) FlipDataBit(bank, row, byteOff int, bit uint) {
	base := c.rowBase(bank, row)
	if byteOff < 0 || byteOff >= c.geom.RowDataBytes {
		panic(fmt.Sprintf("nvram: FlipDataBit offset %d outside row data", byteOff))
	}
	if c.failed {
		return
	}
	c.cells[base+byteOff] ^= 1 << (bit % 8)
	c.bitErrorsInjected++
}

// FlipCodeBit flips one stored bit of a VLEW code slot directly in the
// array, without touching data bits — the code-region counterpart of
// FlipDataBit, letting fault campaigns target each region (data, code,
// parity-chip data) independently. byteOff addresses the VLEW's code
// slot; bit selects the bit within that byte.
func (c *Chip) FlipCodeBit(bank, row, v, byteOff int, bit uint) {
	if v < 0 || v >= c.geom.VLEWsPerRow() {
		panic(fmt.Sprintf("nvram: FlipCodeBit VLEW index %d out of range", v))
	}
	if byteOff < 0 || byteOff >= c.geom.VLEWCodeBytes {
		panic(fmt.Sprintf("nvram: FlipCodeBit offset %d outside code slot (%dB)", byteOff, c.geom.VLEWCodeBytes))
	}
	if c.failed {
		return
	}
	c.vlewCode(c.rowBase(bank, row), v)[byteOff] ^= 1 << (bit % 8)
	c.bitErrorsInjected++
}

// RowWear returns the write count of one row.
func (c *Chip) RowWear(bank, row int) int64 {
	c.checkAddr(bank, row)
	return c.rowWear[bank*c.geom.RowsPerBank+row]
}

// sampleBinomial draws Binomial(n, p) using a normal approximation for
// large means and direct Bernoulli summation for small ones.
func sampleBinomial(rng *rand.Rand, n int64, p float64) int64 {
	mean := float64(n) * p
	if mean < 50 {
		// Poisson-style inversion: for tiny p the count is small.
		count := int64(0)
		// Sample gaps between successes geometrically.
		if p <= 0 {
			return 0
		}
		pos := int64(0)
		for {
			// Geometric skip: number of failures before next success.
			u := rng.Float64()
			skip := int64(math.Log(u) / math.Log1p(-p))
			pos += skip + 1
			if pos > n {
				return count
			}
			count++
		}
	}
	sd := math.Sqrt(mean * (1 - p))
	v := rng.NormFloat64()*sd + mean
	if v < 0 {
		return 0
	}
	if v > float64(n) {
		return n
	}
	return int64(v + 0.5)
}
