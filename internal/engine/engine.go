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
	"chipkillpm/internal/obs"
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
	// The pad keeps every shard's mutex/seq line to itself: shards are
	// allocated one by one, and without it two would share a size-class
	// slot's line, so a writer on one would invalidate the other's
	// lock-free readers.
	_ cpu.CacheLinePad
}

// Slots of the engine's lock-free read counters (Engine.ctr).
// ctrFastClean and ctrFastCorrected partition the reads served without a
// shard mutex; the chip slots, one per chip with the parity chip
// included, attribute each corrected symbol the way the controller's
// telemetry would.
const (
	ctrFastClean = iota
	ctrFastCorrected
	ctrSeqRetries
	ctrSeqFallbacks
	ctrChipCorrected // + chip index
)

// Engine dispatches demand reads and writes across bank-sharded
// controllers.
//
// Concurrency contract: ReadBlock/ReadBlockInto/WriteBlock/
// WriteBlockInitial/DisableBlock, the batch APIs, and Stats/ResetStats are
// all safe for concurrent use. BootScrub and Quiesce acquire every shard
// lock, so they serialise against all demand traffic but must not be
// called from inside another quiescent section. EnterDegradedMode is an
// online migration run to completion: it holds one shard's writer
// section per band, as the guard's migration does, and demand traffic
// keeps flowing around it.
type Engine struct {
	rank     *rank.Rank
	shards   []*shard
	banks    int64
	bpr      int64 // blocks per row
	planPool sync.Pool

	// shardMask is Shards()-1 when blocks-per-row, banks and shards are
	// all powers of two, so shardOf is a shift and a mask; -1 otherwise.
	shardMask int64

	// Lock-free read support (seqlock.go). seqOK is decided once in New;
	// when false every read takes the shard mutex as before.
	seqOK       bool
	fixOne      bool         // controllers accept RS corrections (threshold >= 1)
	rsCode      *rs.Code     // the shards' shared per-block RS code
	geo         rank.Decoder // the rank's decoder: block→cell offset and block→bank
	blockBytes  int
	cells       [][]byte // per data chip backing arrays, in symbol order
	parityCells []byte   // parity (check) chip backing array
	parityChip  int      // rank index of the parity chip
	// ctr holds the lock-free read path's outcome counters (the ctr*
	// slots), striped per goroutine so concurrent readers bump disjoint
	// cache lines; Stats, SeqStats and Telemetry fold it. Set in New.
	ctr *obs.Counters

	// layout is the rank's layout, shared with every shard's controller:
	// blocks below its cursor are striped, and lock-free readers stand
	// down for them. Degraded mode is the cursor at the end.
	layout *core.MigrationState
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
	e := &Engine{
		rank:  r,
		banks: int64(banks),
		bpr:   int64(r.Config().BlocksPerRow()),
		geo:   *r.Decoder(),
		ctr:   obs.NewCounters(ctrChipCorrected+r.NumChips(), obs.Stripes),
	}
	ctrls, err := core.NewControllers(r, cfg.Core, cfg.OMV, n)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	for _, ctrl := range ctrls {
		e.shards = append(e.shards, &shard{ctrl: ctrl})
	}
	e.rsCode, e.layout = ctrls[0].RS(), ctrls[0].Layout()
	e.shardMask = -1
	if e.geo.Pow2() && n&(n-1) == 0 {
		e.shardMask = int64(n) - 1
	}
	cr := r.Config()
	e.blockBytes = cr.BlockBytes()
	e.seqOK = seqlockCapable && cr.ChipAccessBytes == 8
	if e.seqOK {
		e.fixOne = cfg.Core.Threshold >= 1
		for i := 0; i < cr.DataChips; i++ {
			e.cells = append(e.cells, r.Chip(i).CellArray())
		}
		e.parityChip = r.ParityChipIndex()
		e.parityCells = r.Chip(e.parityChip).CellArray()
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
func (e *Engine) BlockBytes() int { return e.blockBytes }

// shardOf maps a block to the shard owning its bank. In a power-of-two
// geometry the shard count divides the bank count, so the bank's low bits
// are the shard.
func (e *Engine) shardOf(block int64) int {
	if e.shardMask >= 0 {
		return e.geo.Bank(block) & int(e.shardMask)
	}
	return e.geo.Bank(block) % len(e.shards)
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
				e.ctr.Add(ctrFastClean, 1)
			}
			return nil
		}
	}
	s.mu.Lock()
	err := s.ctrl.ReadBlockInto(block, dst)
	s.mu.Unlock()
	return err
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
	}
	// Fold in the reads the seqlock path served without a controller.
	// Each was exactly one block fetch; the serial controller would have
	// counted a clean one as a clean read (so the ReadsClean == Reads +
	// OMVMisses bus identity is preserved) and a corrected one as an
	// RS-corrected read with one corrected symbol.
	clean, fixed := e.ctr.Load(ctrFastClean), e.ctr.Load(ctrFastCorrected)
	total.Reads += clean + fixed
	total.ReadsClean += clean
	total.ReadsRSCorrected += fixed
	total.BitsCorrectedRS += fixed
	total.BlockFetches += clean + fixed
	return total
}

// ResetStats zeroes every shard's counters, including the seqlock
// outcome counters. Like the controllers' own telemetry, the per-chip
// correction counts behind Telemetry are lifetime counts and survive it.
func (e *Engine) ResetStats() {
	for _, s := range e.shards {
		s.mu.Lock()
		s.ctrl.ResetStats()
		s.mu.Unlock()
	}
	for slot := ctrFastClean; slot < ctrChipCorrected; slot++ {
		e.ctr.Reset(slot)
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
// itself fans workers across (bank, row) units internally; its counters
// land on shard 0's controller and therefore appear in Stats.
func (e *Engine) BootScrub() core.ScrubReport {
	var rep core.ScrubReport
	e.Quiesce(func() {
		rep = e.shards[0].ctrl.BootScrub()
	})
	return rep
}

// ChipSolver returns the rank's RS erasure solver for chip ci, from the
// cache the shards' controllers share (core.Controller.ChipSolver): built
// on first use, then the same read-only solver for every caller. It asks
// through shard 0 under that shard's lock, like the other per-controller
// calls here. Safe for concurrent use.
func (e *Engine) ChipSolver(ci int) *rs.ErasureSolver {
	s := e.shards[0]
	s.mu.Lock()
	solver := s.ctrl.ChipSolver(ci)
	s.mu.Unlock()
	return solver
}

// EnterDegradedMode remaps the rank around a failed data chip: it begins
// an online migration and moves every band in its owning shard's writer
// section (see BeginMigration and MigrateBand); the last band leaves the
// rank degraded. Demand traffic to every other band proceeds meanwhile;
// the engine does not quiesce.
//
//chipkill:rankwide
func (e *Engine) EnterDegradedMode(failedChip int) error {
	m, err := e.BeginMigration(failedChip, 0)
	if err != nil {
		return err
	}
	for m.Cursor() < e.Blocks() {
		if err := e.MigrateBand(m, nil); err != nil {
			return err
		}
	}
	return nil
}

// Degraded reports whether the engine is in degraded mode — the layout's
// cursor at the end — and for which chip.
func (e *Engine) Degraded() (bool, int) {
	if !e.layout.Degraded() {
		return false, -1
	}
	return true, e.layout.FailedChip()
}
