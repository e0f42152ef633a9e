// Package engine provides a sharded concurrent demand engine over one
// persistent-memory rank.
//
// core.Controller is deliberately single-owner: it models a per-channel
// memory controller and keeps its demand paths lock- and allocation-free.
// The engine scales that to many concurrent clients by partitioning the
// block space along the bank ownership already implicit in rank.Locate:
// every block maps to exactly one bank, all mutable per-bank chip state is
// disjoint (see the nvram.Chip contract), so banks are the natural unit of
// parallelism — exactly as in real DRAM/NVRAM systems, where banks operate
// independently behind their own row buffers.
//
// Each shard owns the banks b with b % Shards == s and wraps its own
// unmodified core.Controller view of the shared rank behind one striped
// mutex. Writers still take that mutex; reads run lock-free under a
// per-shard seqlock — clean ones, and at the paper's runtime RBER the
// ~11% that need a one-symbol RS fix — and only park on the mutex when a
// writer is inside, a revalidation fails, or the block needs a wider
// correction or the ~0.02% VLEW fallback (see seqlock.go and DESIGN.md
// §12). Striped
// mutexes were chosen over per-shard request channels for the locked
// paths: an uncontended mutex handoff costs tens of nanoseconds and is
// allocation-free, while a channel round trip costs several hundred
// nanoseconds plus request/response envelopes. DESIGN.md §9 has the full
// argument and the ordering rules.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"chipkillpm/internal/core"
	"chipkillpm/internal/cpu"
	"chipkillpm/internal/rank"
	"chipkillpm/internal/rs"
)

// Config tunes the engine.
type Config struct {
	// Shards is the number of shard locks/controllers. Zero means one per
	// bank (the maximum useful value); larger values are clamped to the
	// bank count, since two shards can never split one bank.
	Shards int
	// Core configures every shard's controller identically.
	Core core.Config
	// OMV supplies old memory values to all shards' write paths. Because
	// shards run concurrently, a non-nil provider must itself be safe for
	// concurrent use. nil means every write fetches its OMV from memory.
	OMV core.OMVProvider
	// BatchFanOut bounds the goroutines a batch call may use across shard
	// groups: 0 means min(GOMAXPROCS, shards), 1 forces inline execution
	// (still batched per shard, just on the caller's goroutine), larger
	// values cap the fan-out.
	BatchFanOut int
	// DisableSeqlock forces every read through the shard mutex, exactly as
	// before the lock-free clean-read path existed. For A/B comparison and
	// for the serial-equivalence campaigns; the engine also disables the
	// path on its own under the race detector, with
	// WriteBackVLEWCorrections set (locked reads then mutate data cells),
	// or on geometries without the paper's 8-byte chip access.
	DisableSeqlock bool
}

type shard struct {
	//chipkill:lock engine.shard level=30 ranked
	mu sync.Mutex
	// ctrl is mutated under mu (demand paths) or with every shard lock
	// held (rank-wide maintenance inside a quiescent section).
	//chipkill:guardedby engine.shard engine.rank
	ctrl *core.Controller
	// seq is the shard's seqlock generation: odd while a writer is inside
	// its critical section, even otherwise. Writers bump it on both edges
	// under mu (see lockWrite/unlockWrite); lock-free readers bracket
	// their gathers with two loads of it.
	//chipkill:atomic
	seq atomic.Uint64
	// hasDisabled latches "some block on this shard has been retired".
	// Set inside DisableBlock's writer section before the retirement is
	// visible and never cleared, it lets the lock-free reader skip the
	// controller's disabled-map lookup: shards that never retired a block
	// (the steady state) stay on the fast path, shards that did fall back
	// to the locked read, which consults the map.
	//chipkill:atomic
	hasDisabled atomic.Bool
	_           cpu.CacheLinePad
	// Lock-free read outcome counters, on their own cache line so reader
	// cores bumping them don't invalidate the writers' mutex/seq line.
	// fastClean and fastCorrected partition the reads served without the
	// mutex; chipCorrected (one per chip, parity chip included) attributes
	// each corrected symbol the way the controller's telemetry would. Its
	// slice header is set once in New, before the engine is shared.
	//chipkill:atomic
	fastClean atomic.Int64
	//chipkill:atomic
	fastCorrected atomic.Int64
	//chipkill:atomic
	seqRetries atomic.Int64
	//chipkill:atomic
	seqFallbacks  atomic.Int64
	chipCorrected []atomic.Int64
	_             cpu.CacheLinePad
}

// Engine dispatches demand reads and writes across bank-sharded
// controllers.
//
// Concurrency contract: ReadBlock/ReadBlockInto/WriteBlock/
// WriteBlockInitial/DisableBlock, the batch APIs, and Stats/ResetStats are
// all safe for concurrent use. BootScrub, EnterDegradedMode and Quiesce
// acquire every shard lock, so they serialise against all demand traffic
// but must not be called from inside another quiescent section.
type Engine struct {
	rank     *rank.Rank
	shards   []*shard
	banks    int64
	bpr      int64 // blocks per row
	fanout   int   // batch fan-out cap from Config; 0 = auto
	planPool sync.Pool

	// Lock-free read support (seqlock.go). seqOK is decided once in New;
	// when false every read takes the shard mutex as before.
	seqOK       bool
	fixOne      bool     // controllers accept RS corrections (threshold >= 1)
	rsCode      *rs.Code // engine-owned checker for the lock-free path
	geo         fastGeom // precomputed block→cell-offset addressing
	cells       [][]byte // per data chip backing arrays, in symbol order
	parityCells []byte   // parity (check) chip backing array
	parityChip  int      // rank index of the parity chip

	// degraded latches "the rank is (or may be) in the striped degraded
	// layout": set before any shard flips, never cleared. In that layout a
	// raw original-layout gather reads striped bytes that could — rarely —
	// still satisfy the RS check, which would be silent data corruption,
	// so lock-free readers stand down permanently.
	//chipkill:atomic
	degraded atomic.Bool
	// mig publishes the online-migration state to lock-free readers, set
	// before the first band moves. Blocks below the cursor are striped and
	// must take the locked path.
	//chipkill:atomic
	mig atomic.Pointer[core.MigrationState]
}

// New builds an engine over the rank. The rank must be quiescent (freshly
// built or scrubbed); the engine assumes sole ownership of its demand
// traffic from then on.
func New(r *rank.Rank, cfg Config) (*Engine, error) {
	banks := r.Config().Geometry.Banks
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("engine: shards %d must be >= 0", cfg.Shards)
	}
	n := cfg.Shards
	if n == 0 || n > banks {
		n = banks
	}
	if cfg.BatchFanOut < 0 {
		return nil, fmt.Errorf("engine: batch fan-out %d must be >= 0", cfg.BatchFanOut)
	}
	e := &Engine{
		rank:   r,
		banks:  int64(banks),
		bpr:    int64(r.Config().BlocksPerRow()),
		fanout: cfg.BatchFanOut,
	}
	for s := 0; s < n; s++ {
		ctrl, err := core.NewController(r, cfg.Core, cfg.OMV)
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", s, err)
		}
		e.shards = append(e.shards, &shard{ctrl: ctrl})
	}
	cr := r.Config()
	e.seqOK = seqlockCapable && !cfg.DisableSeqlock &&
		!cfg.Core.WriteBackVLEWCorrections && cr.ChipAccessBytes == 8
	if e.seqOK {
		code, err := rs.New(cr.BlockBytes(), cr.ChipAccessBytes)
		if err != nil {
			return nil, fmt.Errorf("engine: sizing seqlock RS checker: %w", err)
		}
		e.rsCode = code
		e.fixOne = cfg.Core.Threshold >= 1
		e.geo = newFastGeom(cr, r.Blocks())
		for i := 0; i < cr.DataChips; i++ {
			e.cells = append(e.cells, r.Chip(i).CellArray())
		}
		e.parityChip = r.ParityChipIndex()
		e.parityCells = r.Chip(e.parityChip).CellArray()
		for _, s := range e.shards {
			s.chipCorrected = make([]atomic.Int64, r.NumChips())
		}
	}
	return e, nil
}

// Rank returns the underlying rank.
func (e *Engine) Rank() *rank.Rank { return e.rank }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Blocks returns the rank's capacity in blocks.
func (e *Engine) Blocks() int64 { return e.rank.Blocks() }

// BlockBytes returns the block size the demand APIs move.
func (e *Engine) BlockBytes() int { return e.rank.Config().BlockBytes() }

// shardOf maps a block to the shard owning its bank; mirrors rank.Locate.
func (e *Engine) shardOf(block int64) int {
	return int((block / e.bpr) % e.banks % int64(len(e.shards)))
}

// ReadBlockInto reads one block into a caller-owned buffer of
// BlockBytes(). Clean reads and one-symbol RS corrections are served
// lock-free through the shard's seqlock; anything else — validation
// failures, retired blocks, degraded or migrating layouts, blocks needing
// a wider correction, sequence conflicts — runs the controller's
// corrected read under the owning shard's lock, with semantics identical
// to the always-locked engine.
//
//chipkill:noalloc
func (e *Engine) ReadBlockInto(block int64, dst []byte) error {
	s := e.shards[e.shardOf(block)]
	if e.seqOK {
		if served, corrected := e.readFast(s, block, dst); served {
			if !corrected {
				s.fastClean.Add(1)
			}
			return nil
		}
	}
	s.mu.Lock()
	err := s.ctrl.ReadBlockInto(block, dst)
	s.mu.Unlock()
	return err
}

// ReadBlock is ReadBlockInto returning a fresh buffer.
func (e *Engine) ReadBlock(block int64) ([]byte, error) {
	dst := make([]byte, e.BlockBytes())
	if err := e.ReadBlockInto(block, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// WriteBlock writes one block through the OMV-XOR write path inside the
// owning shard's seqlock writer section.
func (e *Engine) WriteBlock(block int64, data []byte) error {
	s := e.shards[e.shardOf(block)]
	s.lockWrite()
	err := s.ctrl.WriteBlock(block, data)
	s.unlockWrite()
	return err
}

// WriteBlockInitial writes a block conventionally (raw data on the bus);
// used to populate memory.
func (e *Engine) WriteBlockInitial(block int64, data []byte) error {
	s := e.shards[e.shardOf(block)]
	s.lockWrite()
	err := s.ctrl.WriteBlockInitial(block, data)
	s.unlockWrite()
	return err
}

// DisableBlock retires a worn-out block on its owning shard. The shard's
// hasDisabled latch is set inside the writer section, before the
// retirement takes effect, so no lock-free reader can serve the block
// after this returns.
func (e *Engine) DisableBlock(block int64) {
	s := e.shards[e.shardOf(block)]
	s.lockWrite()
	s.hasDisabled.Store(true)
	s.ctrl.DisableBlock(block)
	s.unlockWrite()
}

// BlockDisabled reports whether a block has been retired.
func (e *Engine) BlockDisabled(block int64) bool {
	s := e.shards[e.shardOf(block)]
	s.mu.Lock()
	d := s.ctrl.BlockDisabled(block)
	s.mu.Unlock()
	return d
}

// Stats aggregates every shard's counters on demand. Each shard is
// snapshotted under its lock, so the result never tears an individual
// controller's counters and is safe to call concurrently with demand
// traffic; across shards it is a sequence of consistent snapshots, not a
// single instant.
func (e *Engine) Stats() core.Stats {
	var total core.Stats
	for _, s := range e.shards {
		s.mu.Lock()
		snap := s.ctrl.Stats()
		s.mu.Unlock()
		total.Add(snap)
		// Fold in the reads the seqlock path served without a controller.
		// Each was exactly one block fetch; the serial controller would
		// have counted a clean one as a clean read (so the ReadsClean ==
		// Reads + OMVMisses bus identity is preserved) and a corrected
		// one as an RS-corrected read with one corrected symbol.
		clean, fixed := s.fastClean.Load(), s.fastCorrected.Load()
		total.Reads += clean + fixed
		total.ReadsClean += clean
		total.ReadsRSCorrected += fixed
		total.BitsCorrectedRS += fixed
		total.BlockFetches += clean + fixed
	}
	return total
}

// ResetStats zeroes every shard's counters, including the seqlock
// outcome counters. Like the controllers' own telemetry, the per-chip
// correction counts behind Telemetry are lifetime counts and survive it.
func (e *Engine) ResetStats() {
	for _, s := range e.shards {
		s.mu.Lock()
		s.ctrl.ResetStats()
		s.fastClean.Store(0)
		s.fastCorrected.Store(0)
		s.seqRetries.Store(0)
		s.seqFallbacks.Store(0)
		s.mu.Unlock()
	}
}

// Quiesce runs f with every shard writer section open (in shard order, so
// nested quiescence attempts would deadlock rather than interleave): no
// locked demand operation runs concurrently with f, and every lock-free
// reader either observes an odd sequence and parks, or gathered under a
// sequence that the bumps invalidate and discards its result. Rank-wide
// maintenance — fault injection, wear-out events, row-close sweeps —
// must go through it.
//
//chipkill:lock engine.rank level=20
func (e *Engine) Quiesce(f func()) {
	for _, s := range e.shards {
		s.lockWrite()
	}
	f()
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].unlockWrite()
	}
}

// BootScrub runs the boot-time scrub under full quiescence. The scrub
// itself fans workers across (chip, bank) pairs internally; its counters
// land on shard 0's controller and therefore appear in Stats.
func (e *Engine) BootScrub() core.ScrubReport {
	var rep core.ScrubReport
	e.Quiesce(func() {
		rep = e.shards[0].ctrl.BootScrub()
	})
	return rep
}

// EnterDegradedMode remaps the rank around a failed data chip under full
// quiescence: shard 0's controller performs the physical remap and every
// other shard adopts the new layout (the striped format lives on the
// chips, not in controller state).
func (e *Engine) EnterDegradedMode(failedChip int) error {
	var err error
	e.Quiesce(func() {
		// Latch before the remap starts: even a failed or partial entry
		// may have moved bytes, and the latch is deliberately one-way.
		e.degraded.Store(true)
		if err = e.shards[0].ctrl.EnterDegradedMode(failedChip); err != nil {
			return
		}
		for _, s := range e.shards[1:] {
			if aerr := s.ctrl.AdoptDegradedMode(failedChip); aerr != nil && err == nil {
				err = aerr
			}
		}
	})
	return err
}

// Degraded reports whether the engine is in degraded mode and for which
// chip.
func (e *Engine) Degraded() (bool, int) {
	s := e.shards[0]
	s.mu.Lock()
	d, chip := s.ctrl.Degraded()
	s.mu.Unlock()
	return d, chip
}
