package main

import (
	"fmt"
	"time"
)

// recoverySpec is one operator-side operation cycled by a recover_*
// workload: fault injection (untimed) followed by the timed recovery
// call, returning how many units of work the call reported.
type recoverySpec struct {
	prepare func(tg *target) error
	cycle   func(tg *target, i int) (units int64, elapsed time.Duration, err error)
}

// redirtyWrites is how many blocks a recovery cycle rewrites before the
// fault lands, so that no two cycles recover the same contents.
const redirtyWrites = 256

// sweepSampleStride is which reads of a recovery cycle's verification
// sweep are timed.
const sweepSampleStride = 8

// The recovery workloads have one driver goroutine and no demand traffic
// while a recovery call runs, which is the rank-wide context Engine.BootScrub
// asks its callers to assert.

// scrubCycle ages the rank by an outage's worth of retention errors, then
// times the boot scrub.
//
//chipkill:rankwide
func scrubCycle(tg *target, _ int) (int64, time.Duration, error) {
	eng := tg.eng
	eng.Quiesce(func() { eng.Rank().InjectRetentionErrors(bootRBER) })
	start := time.Now()
	rep := eng.BootScrub()
	elapsed := time.Since(start)
	if rep.Unrecoverable || len(rep.ChipsFailed) != 0 {
		return 0, 0, fmt.Errorf("boot scrub at RBER %g: %v", bootRBER, rep)
	}
	return rep.VLEWsScrubbed, elapsed, nil
}

// rebuildCycle additionally fails one data chip (each in turn), so the
// boot scrub has to rebuild it by RS erasure decode. The parity chip is
// left out: rebuilding it is a cheaper re-encode, and the cycles of a
// recovery workload must all do the same work (see fastest).
//
//chipkill:rankwide
func rebuildCycle(tg *target, i int) (int64, time.Duration, error) {
	eng := tg.eng
	chip := i % eng.Rank().ParityChipIndex()
	eng.Quiesce(func() {
		eng.Rank().InjectRetentionErrors(bootRBER)
		eng.Rank().FailChip(chip)
	})
	start := time.Now()
	rep := eng.BootScrub()
	elapsed := time.Since(start)
	if rep.Unrecoverable || len(rep.ChipsRebuilt) != 1 || rep.ChipsRebuilt[0] != chip {
		return 0, 0, fmt.Errorf("boot scrub with chip %d failed: %v", chip, rep)
	}
	return rep.BlocksRebuilt, elapsed, nil
}

// repairCycle fails one data chip of one rank (each in turn) and times
// the fleet's in-place repair.
func repairCycle(tg *target, i int) (int64, time.Duration, error) {
	f := tg.flt
	rk := i % f.NumRanks()
	chip := (i / f.NumRanks()) % f.Rank(rk).ParityChipIndex()
	f.Engine(rk).Quiesce(func() { f.Rank(rk).FailChip(chip) })
	start := time.Now()
	err := f.RepairChip(rk, chip)
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	reps := f.Repairs()
	last := reps[len(reps)-1]
	return last.ReplicaBlocks + last.ErasureBlocks, elapsed, nil
}

// replicateOneBandPerRank guarantees every rank a live replica: a data
// chip is only repaired through the fleet when its rank has one, and band
// r lives on rank r, so mirroring the first band of every rank does it
// whatever the popularity warm-up chose.
func replicateOneBandPerRank(tg *target) error {
	for r := 0; r < tg.flt.NumRanks(); r++ {
		if err := tg.flt.ReplicateBand(int64(r)); err != nil {
			return err
		}
	}
	return nil
}

var (
	scrubRecovery   = recoverySpec{cycle: scrubCycle}
	rebuildRecovery = recoverySpec{cycle: rebuildCycle}
	repairRecovery  = recoverySpec{prepare: replicateOneBandPerRank, cycle: repairCycle}
)

// runRecovery cycles a recovery operation for the plan's duration. Each
// cycle rewrites a few blocks (timed: write latency), injects the fault
// and recovers (timed: the workload's rate), then sweeps every block through the demand API (verified; a stride of
// the reads timed). The recovery calls are the chunks of one log, the
// demand ops around them fill another, and both are summarised like a
// demand run's.
func runRecovery(p plan, tg *target, s stream, spec *recoverySpec) (*result, error) {
	if spec.prepare != nil {
		if err := spec.prepare(tg); err != nil {
			return nil, fmt.Errorf("recovery set-up: %w", err)
		}
	}
	res := &result{metrics: map[string]float64{}, tailUsed: map[string]float64{}}
	before := tg.snapshot()
	work, lat := newRecorder(0), newRecorder(0)
	wbuf := make([]byte, blockBytes)
	rbuf := make([]byte, blockBytes)
	base := time.Now()
	pos := 0
	for i := 0; ; i++ {
		at := time.Since(base)
		if at >= p.warmup+p.measure && len(work.chunks) > 0 {
			break
		}
		measuring := at >= p.warmup
		var log *recorder
		if measuring {
			log = lat
		}
		chunkStart := time.Now()
		for n := 0; n < redirtyWrites; n++ {
			block := ringBlock(s.ring[pos])
			pos = (pos + 1) % len(s.ring)
			v := tg.sh.next(wbuf, block)
			t0 := time.Now()
			err := tg.st.WriteBlock(block, wbuf)
			if measuring {
				now := time.Now()
				lat.sample(int64(now.Sub(t0)), true)
				if lat.filled() {
					lat.closeChunk(chunkSamples, int64(now.Sub(chunkStart)))
					chunkStart = now
				}
			}
			res.tally.attempted++
			if err != nil {
				res.tally.failed++
				continue
			}
			tg.sh.ack(block, v, wbuf)
		}
		units, elapsed, err := spec.cycle(tg, i)
		res.tally.attempted++
		if err != nil {
			return nil, fmt.Errorf("recovery cycle %d: %w", i, err)
		}
		if measuring {
			work.closeChunk(units, int64(elapsed))
		}
		res.tally.add(tg.sh.sweep(tg.st, rbuf, log))
	}
	res.counters = tg.snapshot().sub(before)
	if err := res.reduce([]*recorder{work}, fastest, []*recorder{lat}); err != nil {
		return nil, err
	}
	return res, nil
}
