package nvram

import (
	"fmt"
	"math"
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
// Concurrency contract (mirrors real hardware, where each bank operates
// independently behind its own row buffer):
//
//   - ReadVLEWInto and WriteVLEW take the chip's internal mutex and may be
//     called concurrently from anywhere — the parallel boot scrub fans
//     workers out across (chip, bank) pairs.
//   - The bank-addressed demand methods (ReadDataInto, WriteData, WriteXOR,
//     WriteDataRaw, OpenRow, CloseRow, XORCode, ReadCode) may run
//     concurrently so long as no two goroutines touch the same bank at the
//     same time: all mutable per-bank state (cells rows, the open-row
//     register, EUR slots, row wear) is disjoint across banks, and shared
//     counters are updated atomically. The sharded engine relies on this by
//     assigning each bank to exactly one shard lock.
//   - Fault-injection and maintenance methods (Fail, Repair, CloseAllRows,
//     InjectRetentionErrors, WearOutBit, FlipDataBit, FlipCodeBit) require
//     full quiescence: no concurrent access of any kind.
//
// Decoding (the expensive part of a scrub) happens outside the chip and
// needs no lock.
type Chip struct {
	// mu guards the *VLEW methods and the failed-read rng.
	//chipkill:lock nvram.chip level=60
	mu      sync.Mutex
	geom    Geometry
	enc     *bch.Code // VLEW encoder; nil disables in-chip encoding
	cells   []byte    // banks x rows x RowTotalBytes
	rng     *rand.Rand
	failed  bool
	openRow []int // per bank; -1 when closed
	// EUR slots indexed bank*VLEWsPerRow+v. A slot accumulates the *raw
	// data delta* of its open-row VLEW — not an encoded code update — and
	// the chip runs the BCH encoder once when the slot drains at row close.
	// BCH is linear, so encoding the accumulated delta equals XORing the
	// per-write encodes, and the deferred scheme pays one EncodeDelta per
	// drain instead of one per write. eurLo/eurHi bound the touched byte
	// range so the drain encodes only what changed. A slot's register is
	// allocated lazily and kept zeroed whenever its eurSet flag is false,
	// so draining is flag-test + encode with no map churn and no
	// cross-bank sharing. Registers are carved out of one eagerly
	// allocated slab so the write path never allocates.
	eurDelta [][]byte
	eurSet   []bool
	eurLo    []int32
	eurHi    []int32
	// bank[b] is per-bank scratch for the write chain (delta staging and
	// EncodeDeltaInto output). Banks operate independently — the demand
	// concurrency contract guarantees no two goroutines touch the same
	// bank — so per-bank ownership makes every write-path encode
	// allocation-free without any caller-threaded buffers.
	bank    []bankScratch
	rowWear []int64           // writes per row, for wear accounting
	stuck   map[int]stuckCell // worn-out cells: writes cannot change them
	// stats fields are only touched through sync/atomic: banks race on
	// them, and Stats() snapshots them without stopping traffic.
	//chipkill:atomic
	stats Stats
}

// bankScratch is the reusable working memory of one bank's write chain.
// Only populated when the chip embeds an encoder.
type bankScratch struct {
	parity []byte // EncodeDeltaInto output, enc.ParityBytes()
	delta  []byte // WriteData delta staging, RowDataBytes
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
		geom:     geom,
		enc:      enc,
		cells:    make([]byte, int64(geom.Banks)*int64(geom.RowsPerBank)*int64(geom.RowTotalBytes())),
		rng:      rand.New(rand.NewSource(seed)),
		openRow:  make([]int, geom.Banks),
		eurDelta: make([][]byte, geom.EURRegisters()),
		eurSet:   make([]bool, geom.EURRegisters()),
		eurLo:    make([]int32, geom.EURRegisters()),
		eurHi:    make([]int32, geom.EURRegisters()),
		rowWear:  make([]int64, geom.Banks*geom.RowsPerBank),
		stuck:    make(map[int]stuckCell),
	}
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	// Carve the EUR registers out of one slab up front (Banks*RowDataBytes,
	// negligible next to cells) so coalescing never allocates mid-write.
	slab := make([]byte, geom.EURRegisters()*geom.VLEWDataBytes)
	for i := range c.eurDelta {
		c.eurDelta[i] = slab[i*geom.VLEWDataBytes : (i+1)*geom.VLEWDataBytes]
	}
	if enc != nil {
		c.bank = make([]bankScratch, geom.Banks)
		for b := range c.bank {
			c.bank[b] = bankScratch{
				parity: make([]byte, enc.ParityBytes()),
				delta:  make([]byte, geom.RowDataBytes),
			}
		}
	}
	return c, nil
}

// Geometry returns the chip's geometry.
func (c *Chip) Geometry() Geometry { return c.geom }

// Stats returns a snapshot of the chip's counters. Counters are maintained
// atomically, so a snapshot taken during concurrent demand traffic is a
// consistent set of per-field loads (not a point-in-time total across
// fields, which only quiescence can give).
func (c *Chip) Stats() Stats {
	return Stats{
		DataWrites:        atomic.LoadInt64(&c.stats.DataWrites),
		RawWrites:         atomic.LoadInt64(&c.stats.RawWrites),
		VLEWCodeWrites:    atomic.LoadInt64(&c.stats.VLEWCodeWrites),
		RowActivations:    atomic.LoadInt64(&c.stats.RowActivations),
		RowCloses:         atomic.LoadInt64(&c.stats.RowCloses),
		BitErrorsInjected: atomic.LoadInt64(&c.stats.BitErrorsInjected),
		BitsWritten:       atomic.LoadInt64(&c.stats.BitsWritten),
		FailedAccesses:    atomic.LoadInt64(&c.stats.FailedAccesses),
	}
}

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
	for i, reg := range c.eurDelta {
		zeroBytes(reg)
		c.eurSet[i] = false
	}
}

// eurIndex addresses a bank's EUR slot for one open-row VLEW.
func (c *Chip) eurIndex(bank, v int) int { return bank*c.geom.VLEWsPerRow() + v }

func zeroBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

func (c *Chip) rowBase(bank, row int) int {
	c.checkAddr(bank, row)
	return (bank*c.geom.RowsPerBank + row) * c.geom.RowTotalBytes()
}

func (c *Chip) checkAddr(bank, row int) {
	if bank < 0 || bank >= c.geom.Banks || row < 0 || row >= c.geom.RowsPerBank {
		panic(fmt.Sprintf("nvram: address out of range: bank=%d row=%d (geometry %dx%d)",
			bank, row, c.geom.Banks, c.geom.RowsPerBank))
	}
}

// ReadDataInto fills dst with len(dst) data bytes starting at byte offset
// off within the row. A failed chip fills dst with garbage (the rng draw
// is taken under the chip mutex so concurrent shards keep the stream
// well-defined).
//
//chipkill:noalloc
func (c *Chip) ReadDataInto(dst []byte, bank, row, off int) {
	base := c.rowBase(bank, row)
	if off < 0 || off+len(dst) > c.geom.RowDataBytes {
		panic(fmt.Sprintf("nvram: data read [%d,%d) outside row data %d", off, off+len(dst), c.geom.RowDataBytes))
	}
	if c.failed {
		atomic.AddInt64(&c.stats.FailedAccesses, 1)
		c.mu.Lock()
		c.rng.Read(dst)
		c.mu.Unlock()
		return
	}
	copy(dst, c.cells[base+off:base+off+len(dst)])
}

// WriteData overwrites data bytes conventionally (raw values on the bus).
// Used by scrub write-back and by baseline schemes. VLEW code bits for the
// affected region are updated through the in-chip encoder when present,
// bypassing the EUR (scrub-style writes are not row-locality optimised).
func (c *Chip) WriteData(bank, row, off int, data []byte) {
	base := c.rowBase(bank, row)
	if off < 0 || off+len(data) > c.geom.RowDataBytes {
		panic(fmt.Sprintf("nvram: data write [%d,%d) outside row data %d", off, off+len(data), c.geom.RowDataBytes))
	}
	atomic.AddInt64(&c.stats.RawWrites, 1)
	if c.failed {
		return
	}
	old := c.cells[base+off : base+off+len(data)]
	if c.enc != nil {
		// Update code bits from the delta before overwriting; the delta is
		// staged in the bank's scratch (callers own the bank, per the
		// concurrency contract) so scrub write-backs do not allocate.
		delta := c.bank[bank].delta[:len(data)]
		for i := range data {
			delta[i] = old[i] ^ data[i]
		}
		c.applyCodeDelta(bank, row, off, delta, false)
	}
	copy(old, data)
	c.applyStuck(base+off, len(data))
	atomic.AddInt64(&c.stats.BitsWritten, int64(8*len(data)))
	c.rowWear[bank*c.geom.RowsPerBank+row]++
}

// WriteXOR receives the bitwise sum of old and new data (the paper's
// modified write request) and applies it: new data is recovered by XORing
// the stored old data, and the VLEW code-bit update is accumulated in the
// EUR until row close. The target row is opened implicitly, closing any
// other open row in the bank (draining its EUR registers).
//
//chipkill:noalloc
func (c *Chip) WriteXOR(bank, row, off int, delta []byte) {
	base := c.rowBase(bank, row)
	if off < 0 || off+len(delta) > c.geom.RowDataBytes {
		panic(fmt.Sprintf("nvram: XOR write [%d,%d) outside row data %d", off, off+len(delta), c.geom.RowDataBytes))
	}
	c.OpenRow(bank, row)
	atomic.AddInt64(&c.stats.DataWrites, 1)
	if c.failed {
		return
	}
	gf.XORBytes(c.cells[base+off:base+off+len(delta)], delta)
	c.applyStuck(base+off, len(delta))
	atomic.AddInt64(&c.stats.BitsWritten, int64(8*len(delta)))
	c.rowWear[bank*c.geom.RowsPerBank+row]++
	if c.enc != nil {
		c.applyCodeDelta(bank, row, off, delta, true)
	}
}

// applyCodeDelta folds a data delta into VLEW code bits, either via the
// EUR (coalesce=true) or immediately.
//
//chipkill:noalloc
func (c *Chip) applyCodeDelta(bank, row, off int, delta []byte, coalesce bool) {
	// The delta may span multiple VLEWs; split on VLEW boundaries.
	for len(delta) > 0 {
		v := off / c.geom.VLEWDataBytes
		inOff := off % c.geom.VLEWDataBytes
		n := c.geom.VLEWDataBytes - inOff
		if n > len(delta) {
			n = len(delta)
		}
		if coalesce {
			// Defer the encode: accumulate the raw data delta and widen
			// the touched range. One EncodeDelta over the accumulated
			// delta at drain time equals the XOR of the per-write
			// encodes (BCH linearity), at a fraction of the cost.
			idx := c.eurIndex(bank, v)
			reg := c.eurDelta[idx]
			gf.XORBytes(reg[inOff:inOff+n], delta[:n])
			if !c.eurSet[idx] {
				c.eurSet[idx] = true
				c.eurLo[idx], c.eurHi[idx] = int32(inOff), int32(inOff+n)
			} else {
				if int32(inOff) < c.eurLo[idx] {
					c.eurLo[idx] = int32(inOff)
				}
				if int32(inOff+n) > c.eurHi[idx] {
					c.eurHi[idx] = int32(inOff + n)
				}
			}
		} else {
			update := c.bank[bank].parity
			c.enc.EncodeDeltaInto(update, delta[:n], inOff*8)
			gf.XORBytes(c.vlewCode(bank, row, v), update)
			atomic.AddInt64(&c.stats.VLEWCodeWrites, 1)
		}
		delta = delta[n:]
		off += n
	}
}

// drainSlot folds one armed EUR slot into its VLEW's stored code bits:
// a single EncodeDelta over the slot's accumulated raw delta, XORed into
// the array. Counts one VLEWCodeWrites event per drain regardless of chip
// health (a failed chip still "performs" the array write; it just has no
// effect), exactly as the per-slot drain always has. The caller must hold
// whatever exclusion the access path requires and must have checked
// eurSet[idx].
//
//chipkill:noalloc
func (c *Chip) drainSlot(idx, bank, row, v int) {
	reg := c.eurDelta[idx]
	lo, hi := int(c.eurLo[idx]), int(c.eurHi[idx])
	if !c.failed {
		update := c.bank[bank].parity
		c.enc.EncodeDeltaInto(update, reg[lo:hi], lo*8)
		gf.XORBytes(c.vlewCode(bank, row, v), update)
	}
	atomic.AddInt64(&c.stats.VLEWCodeWrites, 1)
	zeroBytes(reg[lo:hi])
	c.eurSet[idx] = false
}

// clearSlot discards one EUR slot's pending delta without draining it
// (the slot's VLEW is about to be overwritten wholesale).
func (c *Chip) clearSlot(idx int) {
	if !c.eurSet[idx] {
		return
	}
	zeroBytes(c.eurDelta[idx][c.eurLo[idx]:c.eurHi[idx]])
	c.eurSet[idx] = false
}

// vlewCode returns the stored code-bit slice for a VLEW (aliases cells).
func (c *Chip) vlewCode(bank, row, v int) []byte {
	base := c.rowBase(bank, row)
	start := base + c.geom.RowDataBytes + v*c.geom.VLEWCodeBytes
	return c.cells[start : start+c.geom.VLEWCodeBytes]
}

// OpenRow activates a row in a bank, closing (and EUR-draining) any other
// open row first. Opening an already-open row is a no-op (a row hit).
//
//chipkill:noalloc
func (c *Chip) OpenRow(bank, row int) {
	c.checkAddr(bank, row)
	if c.openRow[bank] == row {
		return
	}
	if c.openRow[bank] >= 0 {
		c.CloseRow(bank)
	}
	c.openRow[bank] = row
	atomic.AddInt64(&c.stats.RowActivations, 1)
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
	row := c.openRow[bank]
	if row < 0 {
		return
	}
	for v := 0; v < c.geom.VLEWsPerRow(); v++ {
		idx := c.eurIndex(bank, v)
		if !c.eurSet[idx] {
			continue
		}
		c.drainSlot(idx, bank, row, v)
	}
	c.openRow[bank] = -1
	atomic.AddInt64(&c.stats.RowCloses, 1)
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
		atomic.AddInt64(&c.stats.FailedAccesses, 1)
		c.rng.Read(data)
		c.rng.Read(code)
		return
	}
	if c.openRow[bank] == row {
		idx := c.eurIndex(bank, v)
		if c.eurSet[idx] {
			c.drainSlot(idx, bank, row, v)
		}
	}
	copy(data, c.cells[base+v*c.geom.VLEWDataBytes:])
	copy(code, c.vlewCode(bank, row, v))
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
	atomic.AddInt64(&c.stats.RawWrites, 1)
	if c.failed {
		return
	}
	// An EUR slot is addressed by (bank, vlew) and belongs to the bank's
	// OPEN row. Discard it only when overwriting that row's word; writing
	// a closed row (patrol fixing a cold VLEW while demand traffic holds a
	// different row open) must leave the open row's pending code update
	// armed, or its VLEW is left with stale code bits.
	if c.openRow[bank] == row {
		c.clearSlot(c.eurIndex(bank, v))
	}
	copy(c.cells[base+v*c.geom.VLEWDataBytes:], data)
	c.applyStuck(base+v*c.geom.VLEWDataBytes, len(data))
	copy(c.vlewCode(bank, row, v), code)
	atomic.AddInt64(&c.stats.BitsWritten, int64(8*(len(data)+len(code))))
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
	for i, v := range vs {
		data, code := datas[i], codes[i]
		if v < 0 || v >= c.geom.VLEWsPerRow() {
			panic(fmt.Sprintf("nvram: VLEW index %d out of range", v))
		}
		if len(data) != c.geom.VLEWDataBytes || len(code) != c.geom.VLEWCodeBytes {
			panic("nvram: WriteVLEWRow size mismatch")
		}
		atomic.AddInt64(&c.stats.RawWrites, 1)
		if c.failed {
			continue
		}
		if c.openRow[bank] == row { // see WriteVLEW: the slot is the open row's
			c.clearSlot(c.eurIndex(bank, v))
		}
		copy(c.cells[base+v*c.geom.VLEWDataBytes:], data)
		c.applyStuck(base+v*c.geom.VLEWDataBytes, len(data))
		copy(c.vlewCode(bank, row, v), code)
		atomic.AddInt64(&c.stats.BitsWritten, int64(8*(len(data)+len(code))))
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
	atomic.AddInt64(&c.stats.BitErrorsInjected, flips)
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
	base := c.rowBase(bank, row)
	if off < 0 || off+len(data) > c.geom.RowDataBytes {
		panic(fmt.Sprintf("nvram: raw write [%d,%d) outside row data %d", off, off+len(data), c.geom.RowDataBytes))
	}
	atomic.AddInt64(&c.stats.RawWrites, 1)
	if c.failed {
		return
	}
	copy(c.cells[base+off:], data)
	c.applyStuck(base+off, len(data))
	atomic.AddInt64(&c.stats.BitsWritten, int64(8*len(data)))
	c.rowWear[bank*c.geom.RowsPerBank+row]++
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
	gf.XORBytes(c.vlewCode(bank, row, v), delta)
	atomic.AddInt64(&c.stats.BitsWritten, int64(8*len(delta)))
}

// ReadCode returns a copy of a VLEW code slot.
func (c *Chip) ReadCode(bank, row, v int) []byte {
	if v < 0 || v >= c.geom.VLEWsPerRow() {
		panic(fmt.Sprintf("nvram: VLEW index %d out of range", v))
	}
	out := make([]byte, c.geom.VLEWCodeBytes)
	if c.failed {
		atomic.AddInt64(&c.stats.FailedAccesses, 1)
		c.mu.Lock()
		c.rng.Read(out)
		c.mu.Unlock()
		return out
	}
	copy(out, c.vlewCode(bank, row, v))
	return out
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
	atomic.AddInt64(&c.stats.BitErrorsInjected, 1)
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
	c.vlewCode(bank, row, v)[byteOff] ^= 1 << (bit % 8)
	atomic.AddInt64(&c.stats.BitErrorsInjected, 1)
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
