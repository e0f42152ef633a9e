// Seqlock read path. The common demand operation is a read that is clean
// or one RS symbol away from clean — a raw gather, one RS syndrome word
// and at most a closed-form single-symbol fix, over state no writer is
// touching — yet the shard mutex made every one of them pay a lock
// handoff. This file lets those readers skip the mutex entirely:
//
//	writer:  s.lockWrite()   // mu.Lock; seq++ (odd)
//	         ...mutate...
//	         s.unlockWrite() // seq++ (even); mu.Unlock
//
//	reader:  s1 := seq.Load()            // must be even
//	         gather + RS syndrome word   // plain loads, may observe tears
//	         if seq.Load() != s1 → retry // tear detected, result discarded
//	         nonzero word → fix one symbol in the validated copy, or park
//
// The sequence counter uses Go's sync/atomic, whose operations are
// sequentially consistent: the reader's initial Load acquires everything
// the last unlockWrite released, and the final Load re-ordering barrier
// guarantees the gathered bytes belong to generation s1. A reader that
// observes an odd sequence, loses the revalidation race seqReadRetries
// times, needs more than a one-symbol correction, or hits any
// standing-down gate (a block below the layout cursor, failed chip,
// retired block on the shard) parks on the mutex like before. At the
// paper's runtime RBER about 11% of reads need the one-symbol fix, which
// stays lock-free; only the multi-symbol decodes and the ~0.02% VLEW
// fallback keep their locked semantics, and readers never spin against a
// long writer (band migration) on a loaded core. DESIGN.md §12 has the
// full argument.
package engine

import "encoding/binary"

// seqReadRetries bounds how many sequence conflicts a lock-free reader
// absorbs before parking on the shard mutex. Conflicts need a writer in
// flight on the same shard during the ~100 ns read window, so two losses
// in a row already signal a write burst — parking (which blocks properly)
// beats burning the core on a third attempt.
const seqReadRetries = 2

// lockWrite opens a shard writer critical section: mutex for writer/writer
// exclusion, then the sequence bump to odd that makes concurrent lock-free
// readers stand down (or discard and retry, if they already gathered).
// Every store to seqlock-covered state — chip data cells, controller
// layout state — must happen between lockWrite and unlockWrite; the
// rankwide analyzer in chipkillvet enforces this for the policed
// controller mutators.
//
//chipkill:locks engine.shard
func (s *shard) lockWrite() {
	s.mu.Lock()
	s.seq.Add(1)
}

// unlockWrite closes the critical section: sequence back to even
// (publishing the mutations to the next reader generation), then the
// mutex handoff.
//
//chipkill:unlocks engine.shard
func (s *shard) unlockWrite() {
	s.seq.Add(1)
	s.mu.Unlock()
}

// readFast attempts one lock-free read of block into dst and reports
// whether it served the read, and whether serving it took a one-symbol
// RS correction. On !served the caller must take the locked path, which
// reproduces the exact legacy semantics (including range panics, size
// errors, disabled-block errors, multi-symbol correction and the VLEW
// fallback) and overwrites whatever torn bytes a failed attempt left in
// dst. A corrected read is counted here, with the chip that held the bad
// symbol; a clean one is left to the caller, whose batch loop folds many
// into one counter update.
//
// The function runs between sequence checks with no exclusion at all, so
// it must stay pure: no stores outside dst and the engine's striped
// outcome counters, no calls that could allocate, lock, or mutate.
// chipkillvet's seqlock analyzer enforces this transitively through the
// //chipkill:seqread marks.
//
//chipkill:noalloc
//chipkill:seqread
func (e *Engine) readFast(s *shard, block int64, dst []byte) (served, corrected bool) {
	if block < 0 || block >= e.geo.Blocks() || len(dst) != e.blockBytes {
		return false, false
	}
	for tries := 0; ; tries++ {
		s1 := s.seq.Load()
		if s1&1 != 0 || tries == seqReadRetries {
			// A writer is inside, or one keeps beating us: park on the
			// mutex, which blocks instead of spinning.
			e.ctr.Add(ctrSeqFallbacks, 1)
			return false, false
		}
		// Standing-down gates, re-evaluated each attempt. hasDisabled is
		// sticky (set before the state it guards ever changes, never
		// cleared), the layout cursor only grows (blocks below it are
		// striped; degraded mode is the cursor at the end), and a chip
		// failure under load happens inside Quiesce — whose sequence
		// bumps force racing readers back here to observe it.
		// FailedChips is also checked per attempt because a failed
		// chip's stale cells can still look like a valid codeword.
		if s.hasDisabled.Load() || e.rank.FailedChips() != 0 || block < e.layout.Cursor() {
			return false, false
		}
		off := e.geo.Offset(block)
		for i := 0; i < len(e.cells); i++ {
			binary.LittleEndian.PutUint64(dst[8*i:],
				binary.LittleEndian.Uint64(e.cells[i][off:]))
		}
		w := binary.LittleEndian.Uint64(e.parityCells[off:])
		syn := e.rsCode.SyndromeWord(dst, w)
		if s.seq.Load() != s1 {
			// Torn or stale: discard everything and retry.
			e.ctr.Add(ctrSeqRetries, 1)
			continue
		}
		if syn == 0 {
			return true, false
		}
		// Validated anomaly: dst is one committed generation, so fixing a
		// single bad symbol here is exactly the controller's weight-1
		// decode (accepted whenever its threshold allows any correction).
		// Wider patterns go to the locked decoder and VLEW fallback.
		if !e.fixOne {
			return false, false
		}
		pos, _, ok := e.rsCode.CorrectWord(dst, syn)
		if !ok {
			return false, false
		}
		ci := e.parityChip
		if pos < len(dst) {
			ci = pos / 8 // data chip i holds symbols 8i..8i+7
		}
		e.ctr.Add(ctrFastCorrected, 1)
		e.ctr.Add(ctrChipCorrected+ci, 1)
		return true, true
	}
}

// SeqStats reports the lock-free read path's outcome counters, summed
// over every stripe. Monotonic between ResetStats calls; all zeros when the
// seqlock path is disabled (race builds, incompatible geometry or
// write-back configs).
type SeqStats struct {
	FastReads     int64 // reads served without touching the shard mutex, clean or corrected
	FastCorrected int64 // of FastReads, those that needed a one-symbol RS correction
	Retries       int64 // gathers discarded on a sequence conflict and retried
	LockFallbacks int64 // reads parked on the mutex: writer inside or retries exhausted
}

// SeqStats folds the seqlock outcome counters.
func (e *Engine) SeqStats() SeqStats {
	fixed := e.ctr.Load(ctrFastCorrected)
	return SeqStats{
		FastReads:     e.ctr.Load(ctrFastClean) + fixed,
		FastCorrected: fixed,
		Retries:       e.ctr.Load(ctrSeqRetries),
		LockFallbacks: e.ctr.Load(ctrSeqFallbacks),
	}
}

// SeqlockEnabled reports whether the engine compiled and configured the
// lock-free clean-read path.
func (e *Engine) SeqlockEnabled() bool { return e.seqOK }
