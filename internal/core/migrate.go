package core

import (
	"fmt"
	"sync/atomic"

	"chipkillpm/internal/cpu"
)

// Online degraded-mode migration: the one way into the striped layout.
//
// The migration walks the rank band by band under the engine's ordinary
// shard locks, so demand traffic keeps flowing to every bank except the
// one band being rewritten at that instant. EnterDegradedMode is the same
// walk run to completion in one call, and crash recovery resumes it from
// the journal (RedoBand) or, for a finished one, begins it with the
// cursor at the end.
//
// A *band* is one old-layout VLEW span: VLEWDataBytes/ChipAccessBytes
// consecutive, aligned blocks (32 in the paper's geometry), all in one
// row of one bank. The logical unit of the degraded layout is the
// 4-block striped VLEW group, but physical atomicity has to round up to
// the band, for two reasons:
//
//  1. The parity chip's old VLEW covers the band's full 256B column of
//     check bytes. Remapping any one group overwrites part of that
//     column with failed-chip data, which would break old-layout VLEW
//     fallback for every *other* block of the band. The band must
//     change layout as a unit.
//  2. Band v's eight striped groups land on the eight survivors at
//     code slot v — exactly the slots holding the band's own old VLEW
//     code. Rewriting the band consumes precisely the code space its
//     old layout frees, so no slot is ever shared between layouts.
//
// Layout protocol: MigrationState is the rank's one layout value, shared
// by every controller over the rank (all engine shards) from
// construction (NewControllers). Blocks below its atomic cursor are in
// the striped layout, blocks at or above it in the original one, so the
// original layout is the cursor at 0 with no chip retired, a migration is
// the cursor inside the rank, and degraded mode is the cursor at the end.
// Readers and writers consult it via blockStriped after taking the
// block's bank/shard lock; bands migrate only under their own bank's
// lock, so a block's layout cannot change mid-operation.
//
// EUR protocol: before a band is rewritten, the bank's open rows are
// closed, draining any ECC Update Registerfile entries targeting the
// band's old code slots. Post-migration writes to the band take the
// degraded path (controller-maintained code, no EUR), so no drain can
// ever land on a repurposed slot afterwards.

// MigrationState is a rank's layout: the retired data chip (-1 while the
// rank keeps its original layout) and the cursor, the first block not yet
// in the striped layout. BeginMigration stores the chip before the
// cursor, so whoever sees a block below the cursor also sees the chip.
type MigrationState struct {
	//chipkill:atomic
	chip atomic.Int64
	//chipkill:atomic
	cursor atomic.Int64
	blocks int64
	// solvers is the rank's erasure-solver cache (Controller.ChipSolver).
	// It rides here, in the one value every controller over the rank
	// shares, so that it can be built on the first solver anyone asks
	// for: building a rank's controllers allocates nothing for it.
	//chipkill:atomic
	solvers atomic.Pointer[chipSolvers]
	// The lock-free engine read loads the cursor on every read; the pad
	// makes the value a 64-B object, which the allocator's 64-B size
	// class places on a line of its own.
	_ [cpu.CacheLineBytes - 4*8]byte
}

// Cursor returns the first unmigrated block: blocks below it are in the
// striped layout, blocks at or above it in the original one.
//
//chipkill:seqread
func (m *MigrationState) Cursor() int64 { return m.cursor.Load() }

// FailedChip returns the retired data chip, or -1 in the original layout.
func (m *MigrationState) FailedChip() int { return int(m.chip.Load()) }

// Degraded reports whether every block is striped: the cursor is at the
// end of the rank.
func (m *MigrationState) Degraded() bool { return m.Cursor() == m.blocks }

// BandBlocks returns the migration band size in blocks: one old-layout
// VLEW span (32 in the paper's geometry).
func (c *Controller) BandBlocks() int64 {
	rcfg := c.rank.Config()
	return int64(rcfg.Geometry.VLEWDataBytes / rcfg.ChipAccessBytes)
}

// Layout returns the rank's layout, shared by every controller built with
// this one.
func (c *Controller) Layout() *MigrationState { return c.layout }

// Migrating returns the rank's layout while a migration is in flight (a
// chip retired, the cursor short of the end), or nil.
func (c *Controller) Migrating() *MigrationState {
	if m := c.layout; m.FailedChip() >= 0 && !m.Degraded() {
		return m
	}
	return nil
}

// BeginMigration starts an online migration of failedChip into the
// degraded layout, with the cursor at the given band-aligned block (0
// for a fresh start; a later boundary when resuming from a journal, or
// Blocks() for a rank already striped, which leaves it degraded). Every
// controller over the rank sees it at once: they share the layout.
func (c *Controller) BeginMigration(failedChip int, cursor int64) (*MigrationState, error) {
	m := c.layout
	if err := m.busy(); err != nil {
		return nil, err
	}
	if failedChip < 0 || failedChip >= c.rank.Config().DataChips {
		return nil, fmt.Errorf("core: chip %d is not a data chip", failedChip)
	}
	if !c.rank.Chip(c.rank.ParityChipIndex()).Healthy() {
		return nil, fmt.Errorf("core: parity chip unavailable for remapping: %w", ErrChipFailed)
	}
	if cursor < 0 || cursor > c.rank.Blocks() || cursor%c.BandBlocks() != 0 {
		return nil, fmt.Errorf("core: migration cursor %d not a band boundary in [0,%d]", cursor, c.rank.Blocks())
	}
	if !m.chip.CompareAndSwap(-1, int64(failedChip)) {
		return nil, m.busy()
	}
	m.cursor.Store(cursor)
	return m, nil
}

// busy reports why a new migration cannot start: the rank is degraded or
// already migrating.
func (m *MigrationState) busy() error {
	if m.Degraded() {
		return fmt.Errorf("core: already degraded (chip %d): %w", m.FailedChip(), ErrChipFailed)
	}
	if m.FailedChip() >= 0 {
		return fmt.Errorf("core: %w", ErrMigrationInProgress)
	}
	return nil
}

// MigrateBand migrates the band starting at `first` (which must equal the
// cursor) into the striped layout, then advances the cursor. The caller
// must hold the band's bank/shard lock. Before the band changes layout,
// the failed chip's 8-byte slices for the band — the only bytes that move
// — are passed to wal (may be nil), giving the recovery journal a
// write-ahead image that makes a crashed rewrite redoable.
func (c *Controller) MigrateBand(first int64, wal func(failedSlices []byte) error) error {
	m := c.layout
	if m.FailedChip() < 0 {
		return fmt.Errorf("core: MigrateBand: no migration in progress")
	}
	if cur := m.Cursor(); first != cur {
		return fmt.Errorf("core: MigrateBand: band %d is not at the cursor (%d)", first, cur)
	}
	if first >= c.rank.Blocks() {
		return fmt.Errorf("core: MigrateBand: migration already complete")
	}
	slices, err := c.cleanBand(first, m.FailedChip())
	if err != nil {
		return fmt.Errorf("core: migrating band at block %d: %w", first, err)
	}
	if wal != nil {
		if err := wal(slices); err != nil {
			return fmt.Errorf("core: journaling band at block %d: %w", first, err)
		}
	}
	return c.redoBand(first, slices)
}

// cleanBand is the migration's band kernel. A band is one VLEW on every
// chip, so it reads each chip's word once, BCH-corrects it and writes the
// corrected words back, leaving clean cells for redoBand to encode the
// striped code over. It returns the failed chip's word — the band's
// slices of that chip, the WAL image. When that chip is dead or its word
// is beyond the code, the word is solved from the survivors instead
// (ErasureSolver.SolveWords, the boot rebuild's kernel). A survivor
// beyond the code is a DUE: the band cannot be rebuilt.
func (c *Controller) cleanBand(first int64, failed int) ([]byte, error) {
	r := c.rank
	rcfg := r.Config()
	g, code := rcfg.Geometry, rcfg.VLEWCode
	loc := r.Locate(first)
	v := loc.VLEWIndex(g.VLEWDataBytes)
	c.stats.BlockFetches += c.vlewFetchBlocks()

	words := make([][]byte, r.NumChips())
	slab := make([]byte, len(words)*g.VLEWDataBytes)
	for ci := range words {
		words[ci] = slab[ci*g.VLEWDataBytes : (ci+1)*g.VLEWDataBytes]
	}
	// fetch reads and corrects chip ci's word, writing it back if the
	// decode fixed anything.
	fetch := func(ci int) error {
		chip, vcode := r.Chip(ci), c.vlewCodeBuf
		chip.ReadVLEWInto(words[ci], vcode, loc.Bank, loc.Row, v)
		fixed, err := code.Decode(words[ci], vcode[:code.ParityBytes()])
		if err == nil && fixed > 0 {
			c.stats.BitsCorrectedVLEW += int64(fixed)
			chip.WriteVLEW(loc.Bank, loc.Row, v, words[ci], vcode)
		}
		return err
	}
	for ci := 0; ci < rcfg.DataChips; ci++ {
		if ci == failed {
			continue
		}
		if err := fetch(ci); err != nil {
			c.stats.Uncorrectable++
			c.tel.DUEs++
			return nil, fmt.Errorf("surviving chip %d beyond the VLEW code: %w", ci, ErrUncorrectable)
		}
	}
	if r.Chip(failed).Healthy() && fetch(failed) == nil {
		return words[failed], nil
	}
	if err := fetch(r.ParityChipIndex()); err != nil {
		c.stats.Uncorrectable++
		c.tel.DUEs++
		return nil, fmt.Errorf("chip %d lost and parity beyond the VLEW code: %w", failed, ErrUncorrectable)
	}
	c.ChipSolver(failed).SolveWords(words[failed], words)
	c.tel.Chips[failed].ErasureRepairs += c.BandBlocks()
	return words[failed], nil
}

// RedoBand replays the rewrite of the band at `first` from its journaled
// failed-chip slices — boot-time crash recovery, where the band's
// physical state may be torn between layouts. The rewrite is idempotent:
// raw data stores plus XOR-to-fresh code updates converge to the striped
// layout from any intermediate state.
func (c *Controller) RedoBand(first int64, failedSlices []byte) error {
	m := c.layout
	if m.FailedChip() < 0 {
		return fmt.Errorf("core: RedoBand: no migration in progress")
	}
	if cur := m.Cursor(); first != cur {
		return fmt.Errorf("core: RedoBand: band %d is not at the cursor (%d)", first, cur)
	}
	n := c.rank.Config().ChipAccessBytes
	if want := int(c.BandBlocks()) * n; len(failedSlices) != want {
		return fmt.Errorf("core: RedoBand: got %d slice bytes, want %d", len(failedSlices), want)
	}
	return c.redoBand(first, failedSlices)
}

// redoBand performs the physical band rewrite: drain the bank's EURs,
// remap the failed chip's slices into the parity chip's data region, and
// re-encode the band's striped VLEW groups, then advance the cursor. The
// last band leaves the cursor at the end: the rank is degraded.
func (c *Controller) redoBand(first int64, slices []byte) error {
	r := c.rank
	rcfg := r.Config()
	n := rcfg.ChipAccessBytes
	bb := c.BandBlocks()
	code := rcfg.VLEWCode

	// Drain pending EUR code updates for this bank before the band's old
	// code slots are repurposed (see the EUR protocol note above).
	r.CloseBankRows(r.Locate(first).Bank)

	parity := r.Chip(r.ParityChipIndex())
	for i := int64(0); i < bb; i++ {
		loc := r.Locate(first + i)
		parity.WriteDataRaw(loc.Bank, loc.Row, loc.Col, slices[int(i)*n:(int(i)+1)*n])
	}
	for g := first; g < first+bb; g += StripedBlocksPerVLEW {
		c.gatherStriped(g)
		code.EncodeDeltaInto(c.vlewCodeBuf[:code.ParityBytes()], c.vlewDataBuf, 0)
		c.setStripedCode(g)
	}
	c.stats.BandsMigrated++
	c.layout.cursor.Store(first + bb)
	return nil
}
