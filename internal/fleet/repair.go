// Repair-from-replica: when a rank's guard convicts a chip, the fleet
// rebuilds the dead chip's cells in place — bands with a live replica by
// a straight byte copy from the replica rank (one corrected read + one
// 8-byte chip write per block), everything else by local RS erasure
// decode over the surviving chips. Both paths are timed per band so the
// campaign reports can prove the replica copy beats the erasure decode,
// which is the fleet's core argument. With no replica at all the repair
// declines (ErrNoReplica) and the guard falls back to its journaled
// degraded-mode migration exactly as a single-rank deployment would.
package fleet

import (
	"fmt"
	"time"

	"chipkillpm/internal/core"
)

// RepairReport records one chip repair: how many bands each
// reconstruction path handled and how long each path spent, in
// wall-clock nanoseconds, so per-block costs can be compared.
type RepairReport struct {
	Rank, Chip    int
	Parity        bool  // parity chips are re-encoded, not copied
	ReplicaBands  int   // bands rebuilt by byte copy from their replica
	ErasureBands  int   // bands rebuilt by local RS erasure decode
	ReplicaBlocks int64 // blocks restored via the replica path
	ErasureBlocks int64 // blocks restored via the erasure path
	ReplicaNS     int64 // wall time in the replica path
	ErasureNS     int64 // wall time in the erasure path
	Unrecoverable bool  // some block survived neither path
}

// ReplicaNSPerBlock returns the replica path's mean cost per block.
func (r RepairReport) ReplicaNSPerBlock() float64 {
	if r.ReplicaBlocks == 0 {
		return 0
	}
	return float64(r.ReplicaNS) / float64(r.ReplicaBlocks)
}

// ErasureNSPerBlock returns the erasure path's mean cost per block.
func (r RepairReport) ErasureNSPerBlock() float64 {
	if r.ErasureBlocks == 0 {
		return 0
	}
	return float64(r.ErasureNS) / float64(r.ErasureBlocks)
}

// Repairs returns the chip-repair history (oldest first).
func (f *Fleet) Repairs() []RepairReport {
	f.repMu.Lock()
	defer f.repMu.Unlock()
	out := make([]RepairReport, len(f.repairs))
	copy(out, f.repairs)
	return out
}

// RepairChip rebuilds a convicted chip of one rank in place, under that
// rank's engine quiesce. It is the guard Repair hook's target: returning
// nil tells the supervisor the chip is healthy again (no migration
// needed); ErrNoReplica sends it down the local containment path. A data
// chip is only repaired here when at least one of the rank's bands has a
// live replica — that is the situation the fleet can beat (or at least
// match) plain erasure decode in, and it keeps the no-replica fallback
// honest in campaigns. Runs on the supervision goroutine.
func (f *Fleet) RepairChip(rk, chip int) error {
	n := f.ranks[rk]
	if n.killed.Load() {
		return fmt.Errorf("fleet: repair chip %d: rank %d down: %w", chip, rk, ErrRankFailed)
	}
	if chip < 0 || chip >= n.rank.NumChips() {
		return fmt.Errorf("fleet: repair rank %d: no chip %d", rk, chip)
	}
	parity := chip == n.rank.ParityChipIndex()
	if !parity && !f.rankHasLiveReplica(rk) {
		return fmt.Errorf("fleet: repair rank %d chip %d: %w", rk, chip, ErrNoReplica)
	}
	rep := RepairReport{Rank: rk, Chip: chip, Parity: parity}
	n.eng.Quiesce(func() {
		if parity {
			f.repairParityChip(n, &rep)
		} else {
			f.repairDataChip(n, chip, &rep)
		}
	})
	f.repMu.Lock()
	f.repairs = append(f.repairs, rep)
	f.repMu.Unlock()
	f.chipRepairs.Add(1)
	if rep.Unrecoverable {
		return fmt.Errorf("fleet: repair rank %d chip %d left unrecoverable blocks: %w", rk, chip, ErrNoReplica)
	}
	return nil
}

// rankHasLiveReplica reports whether any of the rank's primary bands has
// an active replica on a live rank. Band state atomics are read without
// the band mutex: every transition for this rank's bands funnels through
// a read or write on this rank's engine (which RepairChip quiesces) or
// runs on the supervision goroutine RepairChip itself occupies.
func (f *Fleet) rankHasLiveReplica(rk int) bool {
	for b := rk; b < len(f.bands); b += len(f.ranks) {
		bs := &f.bands[b]
		if bs.state.Load() == bandActive && !f.ranks[bs.replicaRank.Load()].killed.Load() {
			return true
		}
	}
	return false
}

// repairParityChip re-encodes every block's RS check bytes from the data
// chips — parity carries no user data, so there is nothing to copy from
// a replica.
//
//chipkill:rankwide
//chipkill:holds engine.rank
func (f *Fleet) repairParityChip(n *node, rep *RepairReport) {
	r := n.rank
	r.CloseAllRows() // drain EURs so raw reads see settled cells
	// Re-encoding drifted data would freeze the drift in.
	core.ScrubVLEWs(r, 0)
	r.RepairChip(n.rank.ParityChipIndex())
	chip := r.Chip(r.ParityChipIndex())
	start := time.Now()
	for b := int64(0); b < r.Blocks(); b++ {
		data, _ := r.ReadBlockRaw(b)
		loc := r.Locate(b)
		chip.WriteData(loc.Bank, loc.Row, loc.Col, f.rsCode.Encode(data))
		rep.ErasureBlocks++
	}
	rep.ErasureNS = time.Since(start).Nanoseconds()
	rep.ErasureBands = int(r.Blocks() / f.bandBlocks)
}

// repairDataChip rebuilds a failed data chip band by band: replica copy
// where the band has a live replica, RS erasure decode everywhere else
// (unreplicated primary bands and the rank's replica pool). Reads of
// other ranks' engines from here are ordinary corrected demand reads.
//
//chipkill:rankwide
//chipkill:holds engine.rank
func (f *Fleet) repairDataChip(n *node, chip int, rep *RepairReport) {
	r := n.rank
	r.CloseAllRows()
	// Drift-correct the survivors with BootScrub's scan first: RS(72,64)
	// with a whole chip erased has consumed all eight check symbols, so a
	// residual drift error would corrupt the rebuild silently. A VLEW
	// beyond the BCH code stays as found (the counts are ignored) for the
	// RS decode to flag.
	core.ScrubVLEWs(r, 0)
	// RepairChip zeroes the chip's cells and clears its failed latch;
	// from here on WriteData lands (it is a no-op on a failed chip).
	r.RepairChip(chip)

	buf := make([]byte, f.blockBytes)
	bandsDone := 0
	for localBand := int64(0); localBand < f.primary; localBand++ {
		fb := f.fleetBand(n.idx, localBand)
		bs := &f.bands[fb]
		copied := false
		if bs.state.Load() == bandActive {
			rn := f.ranks[bs.replicaRank.Load()]
			if !rn.killed.Load() {
				copied = f.repairBandFromReplica(n, rn, bs, chip, localBand, fb, buf, rep)
			}
		}
		if !copied {
			f.repairBandByErasure(n, chip, localBand*f.bandBlocks, f.bandBlocks, rep)
		}
		bandsDone++
		if f.cfg.RepairBandHook != nil {
			// The campaign hooks registered here kill *other* ranks
			// mid-repair, quiescing a different engine instance than the
			// one this repair holds; the instance-blind lock model cannot
			// see the distinction. The single supervision goroutine never
			// re-enters this rank's own quiesce.
			//chipkill:allow lockorder hook quiesces a different rank's engine, never this one's
			f.cfg.RepairBandHook(n.idx, bandsDone)
		}
	}
	// The replica pool holds other bands' mirror copies; rebuild it by
	// erasure (its contents are re-verifiable against the primaries by
	// the anti-entropy sweep anyway).
	f.repairBandByErasure(n, chip, f.poolBase, r.Blocks()-f.poolBase, rep)
}

// repairBandFromReplica byte-copies one band's slice of the repaired
// chip from the band's replica rank: corrected read of each block on the
// replica engine, then an 8-byte WriteData of just the dead chip's
// contribution. Reports false (leaving the band to the erasure path) if
// any replica read fails.
//
//chipkill:rankwide
//chipkill:holds engine.rank
func (f *Fleet) repairBandFromReplica(n, rn *node, bs *bandState, chip int, localBand, fb int64, buf []byte, rep *RepairReport) bool {
	r := n.rank
	nb := r.Config().ChipAccessBytes
	localBase := localBand * f.bandBlocks
	fleetBase := fb * f.bandBlocks
	cdev := r.Chip(chip)
	start := time.Now()
	for i := int64(0); i < f.bandBlocks; i++ {
		if err := rn.eng.ReadBlockInto(f.replicaBlock(bs, fleetBase+i), buf); err != nil {
			return false // replica unreadable: erasure-decode the band instead
		}
		loc := r.Locate(localBase + i)
		cdev.WriteData(loc.Bank, loc.Row, loc.Col, buf[chip*nb:(chip+1)*nb])
	}
	rep.ReplicaNS += time.Since(start).Nanoseconds()
	rep.ReplicaBlocks += f.bandBlocks
	rep.ReplicaBands++
	return true
}

// repairBandByErasure reconstructs `count` blocks starting at a local
// block via RS erasure decode over the surviving chips — the same
// rebuild BootScrub runs, timed.
//
//chipkill:rankwide
//chipkill:holds engine.rank
func (f *Fleet) repairBandByErasure(n *node, chip int, base, count int64, rep *RepairReport) {
	r := n.rank
	nb := r.Config().ChipAccessBytes
	cdev := r.Chip(chip)
	erasures := make([]int, nb)
	for i := range erasures {
		erasures[i] = chip*nb + i
	}
	start := time.Now()
	for i := int64(0); i < count; i++ {
		b := base + i
		data, check := r.ReadBlockRaw(b)
		for j := chip * nb; j < (chip+1)*nb; j++ {
			data[j] = 0
		}
		if _, err := f.rsCode.Decode(data, check, erasures); err != nil {
			rep.Unrecoverable = true
			continue
		}
		loc := r.Locate(b)
		cdev.WriteData(loc.Bank, loc.Row, loc.Col, data[chip*nb:(chip+1)*nb])
	}
	rep.ErasureNS += time.Since(start).Nanoseconds()
	rep.ErasureBlocks += count
	rep.ErasureBands += int(count / f.bandBlocks)
}
