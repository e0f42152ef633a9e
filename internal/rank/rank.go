// Package rank models a persistent-memory rank: eight data chips accessed
// in lockstep plus one parity chip, laid out as in the paper's Fig 6.
//
// Each 64 B memory block takes 8 B from every data chip; the parity chip
// supplies the block's eight Reed-Solomon check bytes. Within every chip,
// each 256 B of row data forms one VLEW whose 33 B of BCH code bits sit in
// the same row. The rank is purely functional — it moves real bytes and
// injects real faults; the ECC *policy* (when to decode what) lives in
// internal/core, and timing lives in internal/memctrl.
package rank

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"chipkillpm/internal/bch"
	"chipkillpm/internal/nvram"
)

// Config describes a rank.
type Config struct {
	DataChips       int            // data chips per rank (8 in the paper)
	ChipAccessBytes int            // bytes each chip contributes per block (8)
	Geometry        nvram.Geometry // per-chip array organisation
	VLEWCode        *bch.Code      // VLEW encoder/decoder shared by all chips
	Seed            int64          // base seed for per-chip randomness
}

// BlockBytes returns the memory block size (64 B in the paper).
func (c Config) BlockBytes() int { return c.DataChips * c.ChipAccessBytes }

// BlocksPerRow returns how many blocks one row holds.
func (c Config) BlocksPerRow() int { return c.Geometry.RowDataBytes / c.ChipAccessBytes }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.DataChips < 2 {
		return fmt.Errorf("rank: need at least 2 data chips, got %d", c.DataChips)
	}
	if c.ChipAccessBytes < 1 {
		return fmt.Errorf("rank: chip access bytes must be positive")
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Geometry.RowDataBytes%c.ChipAccessBytes != 0 {
		return fmt.Errorf("rank: row data %dB not a multiple of chip access %dB",
			c.Geometry.RowDataBytes, c.ChipAccessBytes)
	}
	if c.Geometry.VLEWDataBytes%c.ChipAccessBytes != 0 {
		return fmt.Errorf("rank: VLEW data %dB not a multiple of chip access %dB",
			c.Geometry.VLEWDataBytes, c.ChipAccessBytes)
	}
	return nil
}

// paperVLEWCode is the paper's VLEW code, built once per process: a
// bch.Code is immutable and safe for concurrent use, and its tables run
// to megabytes, so every rank PaperConfig describes shares this one.
var paperVLEWCode = sync.OnceValue(func() *bch.Code { return bch.Must(12, 2048, 22) })

// PaperConfig returns a rank configured exactly as the paper's layout:
// 8 data chips, 8 B per chip per block, 256 B VLEWs with 33 B code bits
// (22-bit-EC BCH over GF(2^12)). rowsPerBank and banks size the capacity.
func PaperConfig(banks, rowsPerBank, rowDataBytes int, seed int64) Config {
	return Config{
		DataChips:       8,
		ChipAccessBytes: 8,
		Geometry: nvram.Geometry{
			Banks: banks, RowsPerBank: rowsPerBank, RowDataBytes: rowDataBytes,
			VLEWDataBytes: 256, VLEWCodeBytes: 33,
		},
		VLEWCode: paperVLEWCode(),
		Seed:     seed,
	}
}

// BlockLoc is a decoded block address within the rank.
type BlockLoc struct {
	Bank int
	Row  int
	Col  int // byte offset of the block's slice within the row data
}

// VLEWIndex returns which of the row's VLEWs covers this block, given the
// VLEW data size.
func (l BlockLoc) VLEWIndex(vlewDataBytes int) int { return l.Col / vlewDataBytes }

// Decoder is a rank's block address arithmetic, precomputed once in New.
// Consecutive blocks share a row (giving the row-buffer locality the EUR
// exploits), and consecutive rows interleave across banks. When both
// blocks-per-row and the bank count are powers of two (they are in the
// paper's geometry) a decode is shifts and masks; otherwise it divides.
// It serves Rank.Locate, the rank's block accesses and the engine's
// lock-free reader, which addresses the chips' cell arrays with Offset.
type Decoder struct {
	blocks      int64 // capacity, for range checks
	bpr         int64 // blocks per row
	banks       int64
	rowsPerBank int64
	access      int64 // ChipAccessBytes: one chip's share of a block
	rowStride   int64 // physical row size in bytes (data and code regions)

	pow2                bool
	bprShift, bankShift uint
	bprMask, bankMask   int64
}

func newDecoder(cfg Config) Decoder {
	g := cfg.Geometry
	d := Decoder{
		bpr:         int64(cfg.BlocksPerRow()),
		banks:       int64(g.Banks),
		rowsPerBank: int64(g.RowsPerBank),
		access:      int64(cfg.ChipAccessBytes),
		rowStride:   int64(g.RowTotalBytes()),
	}
	d.blocks = d.banks * d.rowsPerBank * d.bpr
	if isPow2(d.bpr) && isPow2(d.banks) {
		d.pow2 = true
		d.bprShift = uint(bits.TrailingZeros64(uint64(d.bpr)))
		d.bprMask = d.bpr - 1
		d.bankShift = uint(bits.TrailingZeros64(uint64(d.banks)))
		d.bankMask = d.banks - 1
	}
	return d
}

func isPow2(x int64) bool { return x > 0 && x&(x-1) == 0 }

// Blocks returns the rank's capacity in blocks.
//
//chipkill:seqread
func (d *Decoder) Blocks() int64 { return d.blocks }

// Pow2 reports whether decodes are shifts and masks.
func (d *Decoder) Pow2() bool { return d.pow2 }

// split decodes a block known to be in range into its bank, its row in
// the bank, and its index among the row's blocks.
//
//chipkill:seqread
func (d *Decoder) split(block int64) (bank, row, colBlock int64) {
	if d.pow2 {
		rowIdx := block >> d.bprShift
		return rowIdx & d.bankMask, rowIdx >> d.bankShift, block & d.bprMask
	}
	rowIdx := block / d.bpr
	return rowIdx % d.banks, rowIdx / d.banks, block % d.bpr
}

// locate decodes a block into its bank, row and column (the byte offset
// of its slice in the row's data), panicking on a block outside the rank.
func (d *Decoder) locate(block int64) (bank, row, col int) {
	if block < 0 || block >= d.blocks {
		panic(fmt.Sprintf("rank: block %d out of range [0,%d)", block, d.blocks))
	}
	b, r, cb := d.split(block)
	return int(b), int(r), int(cb * d.access)
}

// Bank returns the bank holding a block. The block must be in range.
//
//chipkill:seqread
func (d *Decoder) Bank(block int64) int {
	if d.pow2 {
		return int(block >> d.bprShift & d.bankMask)
	}
	return int(block / d.bpr % d.banks)
}

// Offset returns the byte offset of a block's slice within every chip's
// cell array (the chips share one geometry). The block must be in range.
//
//chipkill:seqread
func (d *Decoder) Offset(block int64) int64 {
	bank, row, cb := d.split(block)
	return (bank*d.rowsPerBank+row)*d.rowStride + cb*d.access
}

// Rank is a set of lockstep NVRAM chips plus a parity chip.
//
// Concurrency contract: the accessors Config, NumChips, ParityChipIndex,
// Chip, Blocks, Decoder and Locate are read-only after New and safe for
// concurrent use. Block-level reads and writes may run concurrently so
// long as no two goroutines touch the same *bank* at the same time —
// Locate maps each block to exactly one bank across all chips, and every
// chip keeps its per-bank state, counters included, in one record per
// bank (see the nvram.Chip contract). nvram.Chip.ReadVLEWInto and
// WriteVLEW also take the chip's mutex, so scrub workers may share a bank
// among themselves.
// The sharded engine partitions banks across shard locks to exploit
// this; a plain controller that serialises all rank access trivially
// satisfies it. Stats folds the chips' bank records and so wants the same
// quiescence as fault-injection and maintenance methods.
type Rank struct {
	cfg    Config
	dec    Decoder
	chips  []*nvram.Chip // data chips; index 0..DataChips-1
	parity *nvram.Chip   // index DataChips in chip-indexed APIs

	// failedChips counts chips currently marked failed. It is maintained
	// by FailChip/RepairChip (the only production paths that change chip
	// health) and read atomically by the engine's lock-free clean-read
	// gate: a failed chip's stored cells may still look like a valid
	// codeword, so raw-array readers must stand down the moment any chip
	// is unhealthy and let the locked correction path model the garbage
	// the failed device actually returns.
	//chipkill:atomic
	failedChips atomic.Int32
}

// New builds the rank, creating fresh zeroed chips.
func New(cfg Config) (*Rank, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Rank{cfg: cfg, dec: newDecoder(cfg)}
	for i := 0; i < cfg.DataChips; i++ {
		c, err := nvram.NewChip(cfg.Geometry, cfg.VLEWCode, cfg.Seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		r.chips = append(r.chips, c)
	}
	p, err := nvram.NewChip(cfg.Geometry, cfg.VLEWCode, cfg.Seed+int64(cfg.DataChips)*7919)
	if err != nil {
		return nil, err
	}
	r.parity = p
	return r, nil
}

// Config returns the rank's configuration.
func (r *Rank) Config() Config { return r.cfg }

// NumChips returns the total chip count including the parity chip.
func (r *Rank) NumChips() int { return r.cfg.DataChips + 1 }

// ParityChipIndex returns the chip index of the parity chip.
func (r *Rank) ParityChipIndex() int { return r.cfg.DataChips }

// Chip returns a chip by index; the parity chip is ParityChipIndex().
func (r *Rank) Chip(i int) *nvram.Chip {
	if i == r.cfg.DataChips {
		return r.parity
	}
	if i < 0 || i > r.cfg.DataChips {
		panic(fmt.Sprintf("rank: chip index %d out of range", i))
	}
	return r.chips[i]
}

// Blocks returns the rank's capacity in blocks.
func (r *Rank) Blocks() int64 { return r.dec.blocks }

// Decoder returns the rank's address decoder.
func (r *Rank) Decoder() *Decoder { return &r.dec }

// Locate decodes a block index into its bank/row/column location (see
// Decoder).
func (r *Rank) Locate(block int64) BlockLoc {
	bank, row, col := r.dec.locate(block)
	return BlockLoc{Bank: bank, Row: row, Col: col}
}

// resolve decodes a block once for a lockstep access into a: every
// chip's kernel then applies its slice there.
//
//chipkill:noalloc
func (r *Rank) resolve(a *nvram.Addr, block int64) {
	bank, row, col := r.dec.locate(block)
	r.parity.Resolve(a, bank, row, col, r.cfg.ChipAccessBytes)
}

// ReadBlockRawInto gathers a block's 64 data bytes and 8 check bytes from
// the chips into caller-owned buffers, with no error correction — the
// allocation-free demand read primitive. data must hold BlockBytes() and
// check ChipAccessBytes. Failed chips contribute garbage.
//
//chipkill:noalloc
func (r *Rank) ReadBlockRawInto(block int64, data, check []byte) {
	n := r.cfg.ChipAccessBytes
	if len(data) != r.cfg.BlockBytes() || len(check) != n {
		panic("rank: ReadBlockRawInto size mismatch")
	}
	var a nvram.Addr
	r.resolve(&a, block)
	for i, c := range r.chips {
		c.ReadDataAt(data[i*n:(i+1)*n], &a)
	}
	r.parity.ReadDataAt(check, &a)
}

// WriteBlockRaw writes a block and its check bytes conventionally (raw
// values on the bus); used by scrub write-back and baselines.
//
//chipkill:noalloc
func (r *Rank) WriteBlockRaw(block int64, data, check []byte) {
	var a nvram.Addr
	r.resolve(&a, block)
	n := r.cfg.ChipAccessBytes
	if len(data) != r.cfg.BlockBytes() || len(check) != n {
		panic("rank: WriteBlockRaw size mismatch")
	}
	for i, c := range r.chips {
		c.WriteDataAt(&a, data[i*n:(i+1)*n])
	}
	r.parity.WriteDataAt(&a, check)
}

// WriteBlockXOR sends the paper's modified write request: the bitwise sum
// of old and new data (and of old and new check bytes) travels to the
// chips, which recover the new values internally and coalesce VLEW code
// updates in their EURs.
//
// The fan-out itself holds no buffers: each chip owns per-bank scratch for
// its EUR accumulate and drain-time encode, so the whole 9-chip write chain
// is allocation-free without threading caller scratch through the rank.
//
//chipkill:noalloc
func (r *Rank) WriteBlockXOR(block int64, deltaData, deltaCheck []byte) {
	var a nvram.Addr
	r.resolve(&a, block)
	n := r.cfg.ChipAccessBytes
	if len(deltaData) != r.cfg.BlockBytes() || len(deltaCheck) != n {
		panic("rank: WriteBlockXOR size mismatch")
	}
	for i, c := range r.chips {
		c.WriteXORAt(&a, deltaData[i*n:(i+1)*n])
	}
	r.parity.WriteXORAt(&a, deltaCheck)
}

// CloseAllRows closes every open row on every chip, draining EURs.
func (r *Rank) CloseAllRows() {
	for _, c := range r.chips {
		c.CloseAllRows()
	}
	r.parity.CloseAllRows()
}

// CloseBankRows closes the given bank's open row on every chip, draining
// that bank's EURs. Bank-addressed, so it may run concurrently with
// traffic to other banks (see the Rank concurrency contract); online
// migration uses it to retire a band's code slots without quiescing the
// rank.
func (r *Rank) CloseBankRows(bank int) {
	for _, c := range r.chips {
		c.CloseRow(bank)
	}
	r.parity.CloseRow(bank)
}

// InjectRetentionErrors flips stored bits on every healthy chip with the
// given per-bit probability; models time without refresh (e.g. an outage).
// Returns total bits flipped.
func (r *Rank) InjectRetentionErrors(rber float64) int {
	total := 0
	for _, c := range r.chips {
		total += c.InjectRetentionErrors(rber)
	}
	total += r.parity.InjectRetentionErrors(rber)
	return total
}

// FailChip marks a chip (data or parity) as failed. Always fail chips
// through the rank (not nvram.Chip.Fail directly) so the failed-chip
// count the lock-free read gate consults stays accurate.
func (r *Rank) FailChip(i int) {
	c := r.Chip(i)
	if c.Healthy() {
		r.failedChips.Add(1)
	}
	c.Fail()
}

// RepairChip clears a chip failure through the rank, keeping the
// failed-chip count accurate; the boot scrub's chip rebuild uses it.
func (r *Rank) RepairChip(i int) {
	c := r.Chip(i)
	if !c.Healthy() {
		r.failedChips.Add(-1)
	}
	c.Repair()
}

// FailedChips returns the number of chips currently marked failed. It is
// a single atomic load, safe from the engine's lock-free read path.
//
//chipkill:seqread
func (r *Rank) FailedChips() int { return int(r.failedChips.Load()) }

// Stats sums all chips' counters; like nvram.Chip.Stats it is a snapshot
// taken while no bank operation is in flight.
func (r *Rank) Stats() nvram.Stats {
	var s nvram.Stats
	for i := 0; i < r.NumChips(); i++ {
		cs := r.Chip(i).Stats()
		s.DataWrites += cs.DataWrites
		s.RawWrites += cs.RawWrites
		s.VLEWCodeWrites += cs.VLEWCodeWrites
		s.RowActivations += cs.RowActivations
		s.RowCloses += cs.RowCloses
		s.BitErrorsInjected += cs.BitErrorsInjected
		s.BitsWritten += cs.BitsWritten
		s.FailedAccesses += cs.FailedAccesses
	}
	return s
}

// StorageOverhead returns the rank's redundancy ratio: (VLEW code bytes on
// all chips + the parity chip) relative to data capacity — the paper's
// 33/256 + 1/8*(1+33/256) = 27%.
func (r *Rank) StorageOverhead() float64 {
	g := r.cfg.Geometry
	vlewOverhead := float64(g.VLEWCodeBytes) / float64(g.VLEWDataBytes)
	return vlewOverhead + (1.0/float64(r.cfg.DataChips))*(1+vlewOverhead)
}
