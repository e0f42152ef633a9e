// Repair-from-replica: when a rank's guard convicts a chip, the fleet
// rebuilds the dead chip's cells in place, one band — one VLEW span: 32
// blocks, 256 B of the chip plus its 33 B of BCH code — at a time. A band
// with a live replica is copied as one whole VLEW: the replica rank
// BCH-verifies the same chip's VLEW under its shard lock, and its data
// and code land on the repaired chip unchanged. Nothing is re-encoded:
// the VLEW code is a function of the data alone, and both ranks hold the
// same bytes. Every other band, the rank's replica pool and the whole
// parity chip are rebuilt by one core.ScrubRebuild pass, the
// bank-parallel kernel BootScrub runs: row by row it drift-corrects the
// survivors and solves the chip's VLEWs of the row from the same
// buffers. Both paths are timed — the erasure path's time includes the
// survivors' scan it cannot do without — so the campaign reports can
// prove the replica copy beats the erasure rebuild, which is the fleet's
// core argument. With no replica at all the repair declines
// (ErrNoReplica) and the guard falls back to its journaled degraded-mode
// migration exactly as a single-rank deployment would.
package fleet

import (
	"fmt"
	"time"

	"chipkillpm/internal/core"
	"chipkillpm/internal/rs"
)

// RepairReport records one chip repair: how many bands each
// reconstruction path handled and how long each path spent, in
// wall-clock nanoseconds, so per-block costs can be compared.
type RepairReport struct {
	Rank, Chip    int
	Parity        bool  // parity chips are rebuilt by erasure, never copied
	ReplicaBands  int   // bands rebuilt by VLEW copy from their replica
	ErasureBands  int   // bands rebuilt by local RS erasure
	ReplicaBlocks int64 // blocks restored via the replica path
	ErasureBlocks int64 // blocks restored via the erasure path
	ReplicaNS     int64 // wall time in the replica path
	ErasureNS     int64 // wall time in the erasure pass, the survivors' scan included
	Unrecoverable bool  // some band survived neither path
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
// match) a plain erasure rebuild in, and it keeps the no-replica fallback
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
	solver := core.NewChipSolver(n.rank, chip)
	n.eng.Quiesce(func() { f.repairChip(n, solver, &rep) })
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

// repairChip rebuilds chip rep.Chip of n: the replica copies (data chips
// only), then one core.ScrubRebuild pass that drift-corrects the
// survivors and rebuilds every band left from the same row buffers. The
// scan must precede each band's solve because RS(72,64) with a whole chip
// erased has no check symbol left: a residual error would corrupt the
// rebuild silently. For the same reason a band whose survivors hold a
// VLEW beyond the BCH code, or any band while another chip of the rank is
// failed too, can only come back from a replica. If such a band was not
// copied the repair is unrecoverable, and the chip is failed again so
// that reads of the band keep reporting the damage instead of serving a
// rebuild made from it.
//
//chipkill:holds engine.rank
func (f *Fleet) repairChip(n *node, solver *rs.ErasureSolver, rep *RepairReport) {
	r := n.rank
	r.CloseAllRows() // drain EURs so the pass reads settled cells
	// RepairChip zeroes the chip's cells and clears its failed latch;
	// from here on writes to it land (they are no-ops on a failed chip).
	r.RepairChip(rep.Chip)

	erasure := make([]bool, r.Blocks()/f.bandBlocks) // bands left to the erasure pass
	if rep.Parity {
		// Parity carries no user data to copy; with the solver at the
		// check positions its re-encode is an erasure solve.
		for b := range erasure {
			erasure[b] = true
		}
	} else {
		f.repairDataChip(n, rep, erasure)
	}
	for _, e := range erasure {
		if e {
			rep.ErasureBands++
		}
	}
	rep.ErasureBlocks = int64(rep.ErasureBands) * f.bandBlocks
	// The pass skips failed chips, so a second failed chip of the rank
	// shows up only in the count: no erasure band can come back.
	if r.FailedChips() > 0 && rep.ErasureBands > 0 {
		rep.Unrecoverable = true
	}

	start := time.Now()
	_, _, beyond := core.ScrubRebuild(r, solver, rep.Chip, erasure, 0)
	rep.ErasureNS = time.Since(start).Nanoseconds()
	g := r.Config().Geometry
	for _, loc := range beyond {
		if erasure[loc.Span(g)] {
			rep.Unrecoverable = true
		}
	}
	if rep.Unrecoverable {
		r.FailChip(rep.Chip)
	}
}

// repairDataChip walks the rank's primary bands in order, copying each
// band with a live replica from it and marking every other band in
// erasure, as well as the whole replica pool: the pool holds other
// bands' mirrors, which the anti-entropy sweep can re-verify against
// their primaries. The repair-band hook fires once per primary band,
// after the band is copied or marked; the marked bands are rebuilt after
// the walk.
//
//chipkill:holds engine.rank
func (f *Fleet) repairDataChip(n *node, rep *RepairReport, erasure []bool) {
	g := n.rank.Config().Geometry
	data, code := make([]byte, g.VLEWDataBytes), make([]byte, g.VLEWCodeBytes)
	for band := int64(0); band < f.primary; band++ {
		erasure[band] = !f.repairBandFromReplica(n, band, data, code, rep)
		if f.repairBandHook != nil {
			// The campaign hooks registered here kill *other* ranks
			// mid-repair, quiescing a different engine instance than the
			// one this repair holds; the instance-blind lock model cannot
			// see the distinction. The single supervision goroutine never
			// re-enters this rank's own quiesce.
			//chipkill:allow lockorder hook quiesces a different rank's engine, never this one's
			f.repairBandHook(n.idx, int(band)+1)
		}
	}
	for band := f.primary; band < int64(len(erasure)); band++ {
		erasure[band] = true
	}
}

// repairBandFromReplica copies one primary band's VLEW of the repaired
// chip from the band's replica: the replica engine reads and
// BCH-corrects the same chip's VLEW of the replica slot, and one
// WriteVLEW lands its data and code on the repaired chip. data and code
// are the caller's scratch. It reports false, leaving the band to the
// erasure pass, when the band has no live active replica, when a writer
// holds the band, or when the replica engine declines the read (degraded
// or migrating layout, the same chip failed there too, a retired block,
// a VLEW beyond the code).
//
// The replica VLEW cannot change during the copy. Its only writers are
// the band's own: write-through, which holds bs.mu and writes the primary
// before the replica, and the replication copier and anti-entropy sweep,
// which run on the supervision goroutine this repair occupies. A writer
// that holds bs.mu may be parked on this rank's quiesce, so the mutex is
// only tried, never waited for; when the try fails the writer may
// instead be past its primary leg and writing the replica, so the band
// goes to erasure. When the try succeeds every later writer waits for
// the copy to finish. Other bands' writers on the replica rank share the
// VLEW's bank; the shard lock ReadVLEWInto takes keeps their row opens
// and EUR drains out of the read.
//
//chipkill:holds engine.rank
func (f *Fleet) repairBandFromReplica(n *node, band int64, data, code []byte, rep *RepairReport) bool {
	bs := &f.bands[f.fleetBand(n.idx, band)]
	if bs.state.Load() != bandActive || !bs.mu.TryLock() {
		return false
	}
	defer bs.mu.Unlock()
	rn := f.ranks[bs.replicaRank.Load()]
	if bs.state.Load() != bandActive || rn.killed.Load() {
		return false
	}
	g := n.rank.Config().Geometry
	src := core.SpanLoc(g, rep.Chip, f.poolBase/f.bandBlocks+int64(bs.replicaSlot.Load()))
	dst := core.SpanLoc(g, rep.Chip, band)
	start := time.Now()
	if !rn.eng.ReadVLEWInto(src.Chip, src.Bank, src.Row, src.V, data, code) {
		return false
	}
	n.rank.Chip(rep.Chip).WriteVLEW(dst.Bank, dst.Row, dst.V, data, code)
	rep.ReplicaNS += time.Since(start).Nanoseconds()
	rep.ReplicaBlocks += f.bandBlocks
	rep.ReplicaBands++
	return true
}
