// Guard-facing engine APIs: telemetry snapshots, health probes, patrol
// scrub routed through the shard locks, and online degraded-mode
// migration. The health supervisor (internal/guard) drives all of these
// between demand batches; none of them quiesces the whole engine.

package engine

import (
	"chipkillpm/internal/core"
)

// Telemetry aggregates every shard's per-chip error telemetry. Like
// Stats, each shard is snapshotted under its own lock: safe concurrently
// with demand traffic, consistent per shard, not a single rank-wide
// instant. Symbols the lock-free path corrected are added to their chips'
// RSCorrections, exactly where the controller would have counted them.
func (e *Engine) Telemetry() core.Telemetry {
	var total core.Telemetry
	for _, s := range e.shards {
		s.mu.Lock()
		snap := s.ctrl.Telemetry()
		s.mu.Unlock()
		total.Add(snap)
	}
	for ci := range total.Chips {
		total.Chips[ci].RSCorrections += e.ctr.Load(ctrChipCorrected + ci)
	}
	return total
}

// ProbeVLEW decodes one VLEW of one chip under the owning bank's shard
// lock, without write-back, reporting whether it decoded — the
// supervisor's transient-vs-permanent discriminator.
func (e *Engine) ProbeVLEW(chip, bank, row, v int) bool {
	s := e.shards[bank%len(e.shards)]
	s.mu.Lock()
	ok := s.ctrl.ProbeVLEW(chip, bank, row, v)
	s.mu.Unlock()
	return ok
}

// ReadVLEWInto reads one VLEW of one chip under the owning bank's shard
// lock, BCH-corrected into data (VLEWDataBytes) and code (VLEWCodeBytes),
// and writes nothing back. False means the word cannot stand for its
// blocks (see core.Controller.ReadVLEWInto) and the caller must rebuild
// them another way. The fleet's chip repair copies a band from its
// replica rank through it.
func (e *Engine) ReadVLEWInto(chip, bank, row, v int, data, code []byte) bool {
	s := e.shards[bank%len(e.shards)]
	s.mu.Lock()
	ok := s.ctrl.ReadVLEWInto(chip, bank, row, v, data, code)
	s.mu.Unlock()
	return ok
}

// PatrolScrub advances the patrol scan by count units, routing each
// same-bank run of positions to the shard owning that bank, so patrol
// interleaves with demand traffic instead of quiescing it. During an
// online migration the controllers pause patrol (position comes back
// unchanged) and PatrolScrub returns early.
//
//chipkill:rankwide
func (e *Engine) PatrolScrub(pos int64, count int) (next int64, corrected int64) {
	for count > 0 {
		p, run, sh := e.patrolRun(pos)
		if run > int64(count) {
			run = int64(count)
		}
		// Patrol write-backs repair data cells in place, so the run opens
		// a writer section: racing lock-free readers of the same bank
		// discard their gathers instead of consuming half-applied fixes.
		s := e.shards[sh]
		s.lockWrite()
		np, f := s.ctrl.PatrolScrub(p, int(run))
		s.unlockWrite()
		corrected += f
		if np == p {
			return p, corrected // paused mid-migration
		}
		pos = np
		count -= int(run)
	}
	return pos, corrected
}

// patrolRun normalises a patrol position and returns the length of the
// same-bank run starting there plus the owning shard. In the original
// layout positions walk (chip, bank, row, vlew); in degraded mode they
// walk striped groups, whose rows interleave across banks.
func (e *Engine) patrolRun(pos int64) (p, run int64, sh int) {
	g := e.rank.Config().Geometry
	if deg, _ := e.Degraded(); deg {
		groupsPerRow := e.bpr / core.StripedBlocksPerVLEW
		total := e.rank.Blocks() / core.StripedBlocksPerVLEW
		pos %= total
		bank := (pos / groupsPerRow) % e.banks
		return pos, groupsPerRow - pos%groupsPerRow, int(bank % int64(len(e.shards)))
	}
	vpr := int64(g.VLEWsPerRow())
	perBank := int64(g.RowsPerBank) * vpr
	perChip := int64(g.Banks) * perBank
	pos %= int64(e.rank.NumChips()) * perChip
	bank := (pos % perChip) / perBank
	return pos, perBank - (pos%perChip)%perBank, int(bank % int64(len(e.shards)))
}

// BeginMigration starts an online degraded-mode migration (see
// core.Controller.BeginMigration). The shards share the rank's layout, so
// one controller's call starts it for all of them, and lock-free readers
// see it through the same value. With a nonzero cursor (resuming from a
// recovery journal) the call must complete before demand traffic starts:
// blocks below that cursor are already striped on the chips.
//
//chipkill:rankwide
func (e *Engine) BeginMigration(failedChip int, cursor int64) (*core.MigrationState, error) {
	s := e.shards[0]
	s.mu.Lock()
	m, err := s.ctrl.BeginMigration(failedChip, cursor)
	s.mu.Unlock()
	return m, err
}

// MigrateBand migrates the band at the cursor under its owning shard's
// lock, passing the write-ahead image to wal first (see
// core.Controller.MigrateBand). Only one migrator — the supervisor — may
// drive this; demand traffic to every other bank proceeds concurrently,
// and traffic to the band's own bank simply waits its turn on the shard
// lock like any other operation.
//
//chipkill:rankwide
func (e *Engine) MigrateBand(m *core.MigrationState, wal func(failedSlices []byte) error) error {
	first := m.Cursor()
	s := e.shards[e.shardOf(first)]
	// A band rewrite is the longest writer section in the system; the
	// sequence bumps make racing lock-free readers of the band's bank
	// park on the mutex rather than consume a half-rewritten band. The
	// cursor advances inside the section, so by the time the sequence is
	// even again the migrated blocks route to the locked striped path.
	s.lockWrite()
	err := s.ctrl.MigrateBand(first, wal)
	s.unlockWrite()
	return err
}

// RedoBand replays a journaled band rewrite at the cursor during crash
// recovery (see core.Controller.RedoBand).
//
//chipkill:rankwide
func (e *Engine) RedoBand(m *core.MigrationState, failedSlices []byte) error {
	first := m.Cursor()
	s := e.shards[e.shardOf(first)]
	s.lockWrite()
	err := s.ctrl.RedoBand(first, failedSlices)
	s.unlockWrite()
	return err
}

// Migrating returns the rank's layout while a migration is in flight (a
// chip retired, the cursor short of the end), or nil.
func (e *Engine) Migrating() *core.MigrationState {
	if m := e.layout; m.FailedChip() >= 0 && !m.Degraded() {
		return m
	}
	return nil
}

// BandBlocks returns the online-migration band size in blocks.
func (e *Engine) BandBlocks() int64 {
	return int64(e.rank.Config().Geometry.VLEWDataBytes / e.rank.Config().ChipAccessBytes)
}

// TotalPatrolUnits returns the patrol position space of the current
// layout: VLEWs across all chips in the original layout, striped groups
// in degraded mode.
func (e *Engine) TotalPatrolUnits() int64 {
	if d, _ := e.Degraded(); d {
		return e.Blocks() / core.StripedBlocksPerVLEW
	}
	g := e.rank.Config().Geometry
	return int64(e.rank.NumChips()) * int64(g.Banks) * int64(g.RowsPerBank) * int64(g.VLEWsPerRow())
}
