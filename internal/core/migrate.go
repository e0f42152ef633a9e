package core

import (
	"fmt"
	"sync/atomic"
)

// Online degraded-mode migration.
//
// EnterDegradedMode rewrites the whole rank under quiescence — acceptable
// in a reliability model, fatal for a service. The online variant walks
// the rank band by band under the engine's ordinary shard locks, so
// demand traffic keeps flowing to every bank except the one band being
// rewritten at that instant.
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
// Cursor protocol: MigrationState holds an atomic cursor (the first
// unmigrated block), shared by every controller over the rank (all
// engine shards). Readers and writers consult it via blockStriped after
// taking the block's bank/shard lock; bands migrate only under their own
// bank's lock, so a block's layout cannot change mid-operation.
//
// EUR protocol: before a band is rewritten, the bank's open rows are
// closed, draining any ECC Update Registerfile entries targeting the
// band's old code slots. Post-migration writes to the band take the
// degraded path (controller-maintained code, no EUR), so no drain can
// ever land on a repurposed slot afterwards.

// MigrationState is the rank-wide state of one online migration: the
// retiring chip and the atomic progress cursor. One instance is shared by
// every controller (engine shard) over the rank.
type MigrationState struct {
	failedChip int
	//chipkill:atomic
	cursor atomic.Int64
}

// NewMigrationState builds migration state for the given failed data chip
// with the cursor at `cursor` (0 for a fresh migration; a band boundary
// when resuming from a recovery journal).
func NewMigrationState(failedChip int, cursor int64) *MigrationState {
	m := &MigrationState{failedChip: failedChip}
	m.cursor.Store(cursor)
	return m
}

// Cursor returns the first unmigrated block: blocks below it are in the
// striped layout, blocks at or above it in the original one.
//
//chipkill:seqread
func (m *MigrationState) Cursor() int64 { return m.cursor.Load() }

// FailedChip returns the data chip being retired.
func (m *MigrationState) FailedChip() int { return m.failedChip }

// BandBlocks returns the migration band size in blocks: one old-layout
// VLEW span (32 in the paper's geometry).
func (c *Controller) BandBlocks() int64 {
	rcfg := c.rank.Config()
	return int64(rcfg.Geometry.VLEWDataBytes / rcfg.ChipAccessBytes)
}

// Migrating returns the active migration state, or nil.
func (c *Controller) Migrating() *MigrationState { return c.mig }

// BeginMigration starts an online migration of failedChip into the
// degraded layout, with the cursor at the given band-aligned block (0
// for a fresh start; a later boundary when resuming from a journal).
// The returned state must be shared with every other controller over the
// same rank via JoinMigration before any band migrates.
func (c *Controller) BeginMigration(failedChip int, cursor int64) (*MigrationState, error) {
	if c.degraded {
		return nil, fmt.Errorf("core: already degraded (chip %d): %w", c.failedChip, ErrChipFailed)
	}
	if c.mig != nil {
		return nil, fmt.Errorf("core: %w", ErrMigrationInProgress)
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
	m := NewMigrationState(failedChip, cursor)
	c.mig = m
	c.failedChip = failedChip // striped addressing keys off this
	return m, nil
}

// JoinMigration attaches this controller to a migration started on
// another controller over the same rank (the engine's non-leader shards).
func (c *Controller) JoinMigration(m *MigrationState) error {
	if c.degraded {
		return fmt.Errorf("core: already degraded (chip %d): %w", c.failedChip, ErrChipFailed)
	}
	if c.mig != nil {
		return fmt.Errorf("core: %w", ErrMigrationInProgress)
	}
	c.mig = m
	c.failedChip = m.failedChip
	return nil
}

// MigrateBand migrates the band starting at `first` (which must equal the
// cursor) into the striped layout, then advances the cursor. The caller
// must hold the band's bank/shard lock. Before any physical rewrite, the
// failed chip's 8-byte slices for the band — the only bytes that move —
// are passed to wal (may be nil), giving the recovery journal a
// write-ahead image that makes a crashed rewrite redoable.
func (c *Controller) MigrateBand(first int64, wal func(failedSlices []byte) error) error {
	m := c.mig
	if m == nil {
		return fmt.Errorf("core: MigrateBand: no migration in progress")
	}
	if cur := m.Cursor(); first != cur {
		return fmt.Errorf("core: MigrateBand: band %d is not at the cursor (%d)", first, cur)
	}
	if first >= c.rank.Blocks() {
		return fmt.Errorf("core: MigrateBand: migration already complete")
	}
	// Read the band in the old layout with full correction. A dead failed
	// chip routes each block through VLEW fallback + RS erasure, so the
	// slices below are the *reconstructed* data, not chip garbage.
	n := c.rank.Config().ChipAccessBytes
	bb := c.BandBlocks()
	slices := make([]byte, int(bb)*n)
	for i := int64(0); i < bb; i++ {
		if err := c.readCorrectedInto(c.internalBuf, first+i); err != nil {
			return fmt.Errorf("core: migrating band at block %d: %w", first+i, err)
		}
		copy(slices[int(i)*n:], c.internalBuf[m.failedChip*n:(m.failedChip+1)*n])
	}
	if wal != nil {
		if err := wal(slices); err != nil {
			return fmt.Errorf("core: journaling band at block %d: %w", first, err)
		}
	}
	return c.redoBand(first, slices, m)
}

// RedoBand replays the rewrite of the band at `first` from its journaled
// failed-chip slices — boot-time crash recovery, where the band's
// physical state may be torn between layouts. The rewrite is idempotent:
// raw data stores plus XOR-to-fresh code updates converge to the striped
// layout from any intermediate state.
func (c *Controller) RedoBand(first int64, failedSlices []byte) error {
	m := c.mig
	if m == nil {
		return fmt.Errorf("core: RedoBand: no migration in progress")
	}
	if cur := m.Cursor(); first != cur {
		return fmt.Errorf("core: RedoBand: band %d is not at the cursor (%d)", first, cur)
	}
	n := c.rank.Config().ChipAccessBytes
	if want := int(c.BandBlocks()) * n; len(failedSlices) != want {
		return fmt.Errorf("core: RedoBand: got %d slice bytes, want %d", len(failedSlices), want)
	}
	return c.redoBand(first, failedSlices, m)
}

// redoBand performs the physical band rewrite: drain the bank's EURs,
// remap the failed chip's slices into the parity chip's data region, and
// re-encode the band's striped VLEW groups, then advance the cursor.
func (c *Controller) redoBand(first int64, slices []byte, m *MigrationState) error {
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
	fresh, old := make([]byte, rcfg.Geometry.VLEWCodeBytes), make([]byte, rcfg.Geometry.VLEWCodeBytes)
	for g := first; g < first+bb; g += stripedBlocksPerVLEW {
		bank, row, chip, slot, _ := c.stripedLoc(g)
		copy(fresh, code.Encode(c.stripedData(g)))
		holder := r.Chip(chip)
		holder.ReadCodeInto(old, bank, row, slot)
		for i := range old {
			old[i] ^= fresh[i] // XOR to the fresh value regardless of old content
		}
		holder.XORCode(bank, row, slot, old)
	}
	c.stats.BandsMigrated++
	m.cursor.Store(first + bb)
	return nil
}

// FinishMigration completes an online migration whose cursor has reached
// the end of the rank: the controller drops the migration state and
// becomes plainly degraded. Safe to call per-shard without quiescence —
// with the cursor at the end, blockStriped answers true either way.
func (c *Controller) FinishMigration() error {
	if c.mig == nil {
		return fmt.Errorf("core: FinishMigration: no migration in progress")
	}
	if cur := c.mig.Cursor(); cur != c.rank.Blocks() {
		return fmt.Errorf("core: FinishMigration: cursor %d short of %d", cur, c.rank.Blocks())
	}
	c.mig = nil
	c.degraded = true
	return nil
}
