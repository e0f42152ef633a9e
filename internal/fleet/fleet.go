// Package fleet turns N single-rank chipkill stacks into one memory
// service: a deterministic interleaving/placement layer over many ranks
// (each its own core.Controller + engine.Engine + guard.Supervisor), a
// replication tier that mirrors hot bands across ranks, and a fleet
// supervisor that fans guard ticks out, drives telemetry-directed
// replication, and repairs a convicted chip by copying its VLEWs from the
// replica rank instead of rebuilding them by local RS erasure — the core
// argument of "Replication-Aware Memory-Error Protection in
// Disaggregated Memory", with HARP's decode-side telemetry choosing
// which bands get replicated first (PAPERS.md). DESIGN.md §14 has the
// full architecture.
//
// Failure containment contract: a whole-rank failure turns reads of
// replicated bands into replica failovers and reads of unreplicated
// bands into errors wrapping ErrRankFailed — a reported, contained DUE.
// The fleet never serves bytes it cannot vouch for; silent corruption is
// the one outcome no failure combination may produce.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"chipkillpm/internal/core"
	"chipkillpm/internal/engine"
	"chipkillpm/internal/guard"
	"chipkillpm/internal/rank"
)

// Typed sentinels, policed by the chipkillvet sentinel analyzer like the
// PR 4 set: always matched with errors.Is (they are wrapped with block
// and rank context) and never dropped.
var (
	// ErrRankFailed marks an operation that needed a failed rank and had
	// no live replica to fail over to: a contained, reported DUE.
	ErrRankFailed = errors.New("fleet: rank failed")
	// ErrNoReplica marks a repair or failover that found no usable
	// replica; chip repair falls back to local degraded-mode migration.
	ErrNoReplica = errors.New("fleet: no replica available")
)

// Config sizes and tunes a fleet. Zero values take the documented
// defaults.
type Config struct {
	// Ranks is the rank count (>= 2; default 3).
	Ranks int
	// Per-rank paper-shaped geometry; defaults 2 banks x 8 rows x 1024 B.
	Banks, RowsPerBank, RowBytes int
	// Seed feeds per-rank chip randomness and the guard probe streams.
	Seed int64
	// Shards is the engine shard count per rank (0 = one per bank).
	Shards int
	// Threshold is the runtime RS acceptance threshold (<= 0 = paper's 2).
	Threshold int
	// ReplicaBands reserves that many trailing bands of every rank as the
	// replica pool; they are invisible to the fleet block space. Default
	// a quarter of the rank's bands, minimum 1.
	ReplicaBands int
	// ReplicatePerTick bounds how many bands one supervision tick may
	// start mirroring. Default 2; negative disables the policy (bands
	// then replicate only via explicit ReplicateBand calls).
	ReplicatePerTick int
	// MinReplicaHeat is the demand-op count a band must have seen before
	// the policy considers it hot. Default 1.
	MinReplicaHeat int64
	// VerifyBandsPerTick bounds the anti-entropy sweep: that many active
	// bands per tick are compared block-for-block against their primary
	// and repaired on divergence. Default 1; negative disables.
	VerifyBandsPerTick int
	// Guard configures every rank's supervisor identically (per-rank
	// seeds are mixed in); the Repair hook is owned by the fleet and must
	// be left nil.
	Guard guard.Config
	// RepairBandHook, when non-nil, is called once per primary band of a
	// data-chip repair, in band order, after the band is copied from its
	// replica or queued for the erasure pass that follows the walk;
	// bandsDone counts the bands walked (fault campaigns use it to kill
	// the replica rank mid-repair). It runs inside the repaired rank's
	// quiesce.
	RepairBandHook func(rank, bandsDone int)
}

func (c Config) withDefaults() Config {
	if c.Ranks == 0 {
		c.Ranks = 3
	}
	if c.Banks == 0 {
		c.Banks = 2
	}
	if c.RowsPerBank == 0 {
		c.RowsPerBank = 8
	}
	if c.RowBytes == 0 {
		c.RowBytes = 1024
	}
	if c.Threshold <= 0 {
		c.Threshold = 2
	}
	if c.ReplicatePerTick == 0 {
		c.ReplicatePerTick = 2
	}
	if c.MinReplicaHeat == 0 {
		c.MinReplicaHeat = 1
	}
	if c.VerifyBandsPerTick == 0 {
		c.VerifyBandsPerTick = 1
	}
	return c
}

// Band replication states. Transitions happen only under the band's
// mutex; the atomic lets the lock-free primary read path skip the mutex
// entirely when a band has no replica.
const (
	bandNone    int32 = iota // unreplicated
	bandSyncing              // slot assigned, copy in flight, write-through live
	bandActive               // replica coherent: failover + read-repair eligible
)

// bandState tracks one fleet band's replication. Writers (and the rare
// replica-consulting read paths) serialise on mu; reads of an
// unreplicated band on a live rank never touch it.
type bandState struct {
	//chipkill:lock fleet.band level=10
	mu sync.Mutex
	//chipkill:atomic
	state atomic.Int32
	//chipkill:atomic
	replicaRank atomic.Int32
	//chipkill:atomic
	replicaSlot atomic.Int32
	// heat counts demand ops against the band — the replication policy's
	// hotness signal.
	//chipkill:atomic
	heat atomic.Int64
}

// node is one rank's full stack plus its fleet-side bookkeeping.
type node struct {
	idx    int
	rank   *rank.Rank
	eng    *engine.Engine
	sup    *guard.Supervisor
	region *guard.Region
	// killed latches whole-rank failure. Set before the chips fail (under
	// the engine's quiesce), checked first by every demand path.
	//chipkill:atomic
	killed atomic.Bool
	// pressure is the decayed per-rank error signal the replication
	// policy weighs heat by; prevTel is its telemetry baseline. Both are
	// supervision-tick-owned.
	pressure float64
	prevTel  core.Telemetry
	// pool[slot] is the fleet band hosted in that replica slot, -1 when
	// free.
	//chipkill:guardedby fleet.pool
	pool []int64
}

// Fleet is N ranks behind one block space. The demand APIs
// (ReadBlockInto/ReadBlock/WriteBlock/WriteBlockInitial) are safe for
// concurrent use; Tick, ReplicateBand, RepairChip and Stats are
// supervision-side and single-owner (one goroutine drives them), while
// KillRank may fire from anywhere — it is the failure model, not an API.
type Fleet struct {
	cfg        Config
	ranks      []*node
	bands      []bandState // one per fleet band: primaryBands * len(ranks)
	bandBlocks int64       // blocks per band (the engine migration band: one VLEW span)
	primary    int64       // primary bands per rank
	poolBase   int64       // first replica-pool block within a rank
	blocks     int64       // fleet capacity in blocks
	blockBytes int

	// poolMu guards every node's pool free-list.
	//chipkill:lock fleet.pool level=40
	poolMu sync.Mutex

	verifyCursor int64 // anti-entropy round-robin position (tick-owned)

	// repMu guards the repair history appended by RepairChip.
	//chipkill:lock fleet.repairs level=41
	repMu sync.Mutex
	//chipkill:guardedby fleet.repairs
	repairs []RepairReport

	// Fleet-wide outcome counters (see Stats).
	//chipkill:atomic
	replications atomic.Int64
	//chipkill:atomic
	failoverReads atomic.Int64
	//chipkill:atomic
	failoverWrites atomic.Int64
	//chipkill:atomic
	readRepairs atomic.Int64
	//chipkill:atomic
	divergenceFix atomic.Int64
	//chipkill:atomic
	containedDUEs atomic.Int64
	//chipkill:atomic
	rejectedWrites atomic.Int64
	//chipkill:atomic
	rankKills atomic.Int64
	//chipkill:atomic
	chipRepairs atomic.Int64
}

// New builds a fresh fleet: new zeroed ranks, engines, journal regions
// and supervisors.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	ranks := make([]*rank.Rank, cfg.Ranks)
	for i := range ranks {
		r, err := rank.New(rank.PaperConfig(cfg.Banks, cfg.RowsPerBank, cfg.RowBytes,
			cfg.Seed+int64(i)*0x9e3779b9))
		if err != nil {
			return nil, fmt.Errorf("fleet: building rank %d: %w", i, err)
		}
		ranks[i] = r
	}
	return newFromParts(cfg, ranks, nil)
}

// Adopt rebuilds a fleet over surviving ranks and journal regions after
// a crash: fresh engines come up and every rank's supervisor runs its
// journal recovery (resuming or adopting an in-flight migration) before
// any demand traffic. The replication directory is volatile by design —
// it is an availability cache over the primaries, correctness comes from
// the primary copies plus the per-rank journals — so every band restarts
// unreplicated and the policy re-mirrors hot bands as traffic returns.
// A rank whose chips are all failed (killed before the crash) stays
// contained.
func Adopt(cfg Config, ranks []*rank.Rank, regions []*guard.Region) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if len(ranks) != cfg.Ranks {
		return nil, fmt.Errorf("fleet: adopting %d ranks, config says %d", len(ranks), cfg.Ranks)
	}
	if len(regions) != len(ranks) {
		return nil, fmt.Errorf("fleet: %d journal regions for %d ranks", len(regions), len(ranks))
	}
	return newFromParts(cfg, ranks, regions)
}

func newFromParts(cfg Config, ranks []*rank.Rank, regions []*guard.Region) (*Fleet, error) {
	if cfg.Ranks < 2 {
		return nil, fmt.Errorf("fleet: need at least 2 ranks, got %d", cfg.Ranks)
	}
	if cfg.Guard.Repair != nil {
		return nil, fmt.Errorf("fleet: Config.Guard.Repair is fleet-owned, must be nil")
	}
	rcfg := ranks[0].Config()
	f := &Fleet{
		cfg:        cfg,
		bandBlocks: int64(rcfg.Geometry.VLEWDataBytes / rcfg.ChipAccessBytes),
		blockBytes: rcfg.BlockBytes(),
	}
	bandsPerRank := ranks[0].Blocks() / f.bandBlocks
	pool := int64(cfg.ReplicaBands)
	if pool == 0 {
		pool = bandsPerRank / 4
		if pool < 1 {
			pool = 1
		}
	}
	if pool < 1 || pool >= bandsPerRank {
		return nil, fmt.Errorf("fleet: replica pool %d bands must be in [1,%d)", pool, bandsPerRank)
	}
	f.primary = bandsPerRank - pool
	f.poolBase = f.primary * f.bandBlocks
	f.blocks = f.primary * f.bandBlocks * int64(cfg.Ranks)
	f.bands = make([]bandState, f.primary*int64(cfg.Ranks))

	for i, r := range ranks {
		eng, err := engine.New(r, engine.Config{
			Shards: cfg.Shards,
			Core:   core.Config{Threshold: cfg.Threshold},
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: rank %d engine: %w", i, err)
		}
		var region *guard.Region
		if regions != nil {
			region = regions[i]
		} else {
			region = guard.NewRegion(guard.RegionSizeFor(eng))
		}
		gcfg := cfg.Guard
		gcfg.Seed = cfg.Guard.Seed ^ (int64(i+1) * 0x2545f4914f6cdd1d)
		ri := i
		gcfg.Repair = func(chip int) error { return f.RepairChip(ri, chip) }
		sup, err := guard.New(eng, region, gcfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: rank %d supervisor: %w", i, err)
		}
		poolSlice := make([]int64, pool)
		for s := range poolSlice {
			poolSlice[s] = -1
		}
		n := &node{
			idx: i, rank: r, eng: eng, sup: sup, region: region,
			prevTel: eng.Telemetry(),
			pool:    poolSlice,
		}
		if r.FailedChips() >= r.NumChips() {
			n.killed.Store(true) // a rank killed before the crash stays contained
		}
		f.ranks = append(f.ranks, n)
	}
	return f, nil
}

// Blocks returns the fleet's demand capacity (replica pools excluded).
func (f *Fleet) Blocks() int64 { return f.blocks }

// BlockBytes returns the block size the demand APIs move.
func (f *Fleet) BlockBytes() int { return f.blockBytes }

// BandBlocks returns the placement/replication band size in blocks.
func (f *Fleet) BandBlocks() int64 { return f.bandBlocks }

// Bands returns the fleet band count.
func (f *Fleet) Bands() int64 { return int64(len(f.bands)) }

// NumRanks returns the rank count.
func (f *Fleet) NumRanks() int { return len(f.ranks) }

// Rank exposes rank i's chip stack (fault injection, tests).
func (f *Fleet) Rank(i int) *rank.Rank { return f.ranks[i].rank }

// Engine exposes rank i's demand engine.
func (f *Fleet) Engine(i int) *engine.Engine { return f.ranks[i].eng }

// Supervisor exposes rank i's guard supervisor.
func (f *Fleet) Supervisor(i int) *guard.Supervisor { return f.ranks[i].sup }

// Region exposes rank i's journal region (crash/reboot harnesses).
func (f *Fleet) Region(i int) *guard.Region { return f.ranks[i].region }

// RankKilled reports whether rank i has been killed.
func (f *Fleet) RankKilled(i int) bool { return f.ranks[i].killed.Load() }

// SetRepairBandHook installs (or clears) the per-band chip-repair
// progress hook after construction — fault harnesses use it to land
// faults mid-repair. Set it before the repair starts; it is invoked on
// the supervision goroutine inside the repairing rank's quiesce.
func (f *Fleet) SetRepairBandHook(fn func(rank, bandsDone int)) { f.cfg.RepairBandHook = fn }

// RankOf returns the rank serving a fleet block's primary copy.
func (f *Fleet) RankOf(block int64) int {
	rk, _ := f.locate(block)
	return rk
}

// locate maps a fleet block to its primary (rank, local block). Bands
// round-robin across ranks, so consecutive bands land on different ranks
// (interleaving) while blocks within a band stay contiguous in one row
// (the row-buffer locality the EUR exploits).
func (f *Fleet) locate(block int64) (rk int, local int64) {
	if block < 0 || block >= f.blocks {
		panic(fmt.Sprintf("fleet: block %d out of range [0,%d)", block, f.blocks))
	}
	band := block / f.bandBlocks
	n := int64(len(f.ranks))
	return int(band % n), (band/n)*f.bandBlocks + block%f.bandBlocks
}

// fleetBand is locate's inverse at band granularity.
func (f *Fleet) fleetBand(rk int, localBand int64) int64 {
	return localBand*int64(len(f.ranks)) + int64(rk)
}

// replicaBlock returns the replica-rank local block backing a fleet
// block, given its band's assigned slot. Callers must know the band is
// syncing or active (slot fields are only meaningful then).
func (f *Fleet) replicaBlock(bs *bandState, block int64) int64 {
	return f.poolBase + int64(bs.replicaSlot.Load())*f.bandBlocks + block%f.bandBlocks
}

// BandReplicated reports whether the block's band has a coherent replica
// on a live rank.
func (f *Fleet) BandReplicated(block int64) bool {
	bs := &f.bands[block/f.bandBlocks]
	if bs.state.Load() != bandActive {
		return false
	}
	return !f.ranks[bs.replicaRank.Load()].killed.Load()
}

// ReplicaLocation returns the (rank, local block) holding a block's
// replica copy while its band is active — for harnesses that corrupt or
// inspect replicas directly. ok is false when the band has no replica.
func (f *Fleet) ReplicaLocation(block int64) (rk int, local int64, ok bool) {
	bs := &f.bands[block/f.bandBlocks]
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.state.Load() != bandActive {
		return 0, 0, false
	}
	return int(bs.replicaRank.Load()), f.replicaBlock(bs, block), true
}

// Servable reports whether a read of the block can currently be served:
// the primary rank is alive, or the band fails over to a live replica.
func (f *Fleet) Servable(block int64) bool {
	rk, _ := f.locate(block)
	return !f.ranks[rk].killed.Load() || f.BandReplicated(block)
}

// ReadBlockInto reads one fleet block into a caller-owned buffer of
// BlockBytes(). Reads of an unreplicated band on a live rank go straight
// to the rank's lock-free engine path; a DUE on a replicated band
// triggers read-repair from the replica, and a killed primary fails over
// to it. With the primary down and no live replica the read returns an
// error wrapping ErrRankFailed — a contained DUE, never silent data.
func (f *Fleet) ReadBlockInto(block int64, dst []byte) error {
	rk, local := f.locate(block)
	bs := &f.bands[block/f.bandBlocks]
	bs.heat.Add(1)
	n := f.ranks[rk]
	if !n.killed.Load() {
		err := n.eng.ReadBlockInto(local, dst)
		if err == nil {
			return nil
		}
		if bs.state.Load() == bandActive {
			if rerr := f.readRepair(bs, n, local, block, dst); rerr == nil {
				return nil
			}
		}
		// A read racing KillRank can observe the kill as an engine DUE
		// (all chips failed) before it observes the latch; re-check so
		// the race classifies as the contained rank failure it is.
		if !n.killed.Load() {
			return err
		}
	}
	if bs.state.Load() == bandActive {
		if err := f.failoverRead(bs, block, dst); err == nil {
			f.failoverReads.Add(1)
			return nil
		}
	}
	f.containedDUEs.Add(1)
	return fmt.Errorf("fleet: read block %d: rank %d down, no live replica: %w", block, rk, ErrRankFailed)
}

// ReadBlock is ReadBlockInto returning a fresh buffer.
func (f *Fleet) ReadBlock(block int64) ([]byte, error) {
	dst := make([]byte, f.blockBytes)
	if err := f.ReadBlockInto(block, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// failoverRead serves a block from its replica under the band mutex —
// required so a concurrent demotion cannot retarget the slot mid-read.
func (f *Fleet) failoverRead(bs *bandState, block int64, dst []byte) error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.state.Load() != bandActive {
		return fmt.Errorf("fleet: block %d replica demoted: %w", block, ErrNoReplica)
	}
	rn := f.ranks[bs.replicaRank.Load()]
	if rn.killed.Load() {
		return fmt.Errorf("fleet: block %d replica rank %d down: %w", block, rn.idx, ErrRankFailed)
	}
	return rn.eng.ReadBlockInto(f.replicaBlock(bs, block), dst)
}

// readRepair recovers a DUE on a live primary from the band's replica
// and writes the recovered bytes back to the primary. The whole
// round-trip holds the band mutex: write-through writers serialise on
// it, so the replica bytes read here are never older than the last
// acknowledged write and the primary write-back cannot revert one.
func (f *Fleet) readRepair(bs *bandState, n *node, local, block int64, dst []byte) error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.state.Load() != bandActive {
		return fmt.Errorf("fleet: block %d replica demoted: %w", block, ErrNoReplica)
	}
	rn := f.ranks[bs.replicaRank.Load()]
	if rn.killed.Load() {
		return fmt.Errorf("fleet: block %d replica rank %d down: %w", block, rn.idx, ErrRankFailed)
	}
	if err := rn.eng.ReadBlockInto(f.replicaBlock(bs, block), dst); err != nil {
		return err
	}
	// Raw write-back: re-encodes the RS check bytes from the recovered
	// data, scrubbing whatever made the primary copy uncorrectable.
	if err := n.eng.WriteBlockInitial(local, dst); err != nil {
		return err
	}
	f.readRepairs.Add(1)
	return nil
}

// WriteBlock writes one fleet block through the OMV-XOR write path of
// its primary rank, writing through to the replica when the band has
// one. The write is acknowledged only once every live copy has it; with
// the primary rank down it lands on the replica alone, and with neither
// available it is rejected with ErrRankFailed (never half-acknowledged).
func (f *Fleet) WriteBlock(block int64, data []byte) error {
	return f.write(block, data, false)
}

// WriteBlockInitial writes a block conventionally (raw data on the bus);
// used to populate the fleet.
func (f *Fleet) WriteBlockInitial(block int64, data []byte) error {
	return f.write(block, data, true)
}

func (f *Fleet) write(block int64, data []byte, initial bool) error {
	rk, local := f.locate(block)
	band := block / f.bandBlocks
	bs := &f.bands[band]
	bs.heat.Add(1)
	n := f.ranks[rk]
	// Every write serialises on the band mutex — including writes to
	// unreplicated bands, so the replication copier observes either all
	// of a write or none of it while a band transitions to syncing. An
	// uncontended mutex is noise against the ~µs write path.
	bs.mu.Lock()
	defer bs.mu.Unlock()
	alive := !n.killed.Load()
	if alive {
		var err error
		if initial {
			err = n.eng.WriteBlockInitial(local, data)
		} else {
			err = n.eng.WriteBlock(local, data)
		}
		if err != nil {
			if !n.killed.Load() {
				return err // unacknowledged; the replica was not touched
			}
			// The write raced KillRank and the engine saw the dead chips
			// first; it did not land, so take the dead-rank path (replica
			// ack or typed rejection) like any post-kill write.
			alive = false
		}
	}
	repOK := false
	if bs.state.Load() != bandNone {
		rn := f.ranks[bs.replicaRank.Load()]
		if !rn.killed.Load() {
			// Replica copies always take the raw write: the mirror block's
			// previous contents are unrelated to the data's old value, so
			// the OMV-XOR path does not apply.
			if err := rn.eng.WriteBlockInitial(f.replicaBlock(bs, block), data); err != nil {
				// The replica no longer mirrors acknowledged data; demote it
				// rather than serve stale failovers later.
				f.demoteBandLocked(bs)
			} else {
				repOK = true
			}
		}
	}
	if alive {
		return nil
	}
	if repOK {
		f.failoverWrites.Add(1)
		return nil
	}
	f.rejectedWrites.Add(1)
	return fmt.Errorf("fleet: write block %d: rank %d down, no live replica: %w", block, rk, ErrRankFailed)
}

// KillRank fails every chip of a rank under its engine's quiesce — the
// whole-device failure model. The killed latch is set first, so demand
// paths route around the rank before its chips start returning garbage;
// a read racing the kill either served real pre-kill bytes or sees the
// all-chips-failed DUE — never fabricated data. Idempotent.
func (f *Fleet) KillRank(i int) {
	n := f.ranks[i]
	if n.killed.Swap(true) {
		return
	}
	n.eng.Quiesce(func() {
		for ci := 0; ci < n.rank.NumChips(); ci++ {
			n.rank.FailChip(ci)
		}
	})
	f.rankKills.Add(1)
}
