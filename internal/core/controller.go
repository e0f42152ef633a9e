// Package core implements the paper's primary contribution: an efficient
// chipkill-correct scheme for dense NVRAM-based persistent memory that
// decouples boot-time error correction from runtime error correction.
//
// At boot (Sec V-B), when the memory may have gone a week to a year
// without refresh and the raw bit error rate is high, the controller
// scrubs every VLEW — a 22-bit-error-correcting BCH word spanning 256 B of
// per-chip data — and uses the parity chip's per-block Reed-Solomon check
// bytes to reconstruct any chip whose VLEWs are uncorrectable.
//
// At runtime (Sec V-C), the controller reuses each block's eight RS check
// bytes to opportunistically correct bit errors, accepting the result only
// when at most two corrections were needed (miscorrections overwhelmingly
// surface as many corrections); otherwise it falls back to fetching the
// VLEWs, leaving the RS code free to handle chip failures.
//
// On writes (Sec V-D), the controller sends the bitwise XOR of old and new
// data so NVRAM chips can recover the new data internally and fold the
// VLEW code-bit update into their ECC Update Registerfiles; the old memory
// value comes from the LLC's OMV-preserving cache when possible.
package core

import (
	"errors"
	"fmt"
	"sync"

	"chipkillpm/internal/gf"
	"chipkillpm/internal/rank"
	"chipkillpm/internal/rs"
)

// ErrUncorrectable reports a detected-but-uncorrectable error (DUE): the
// block's data could not be recovered by any layer of the scheme.
var ErrUncorrectable = errors.New("core: uncorrectable error")

// ErrBlockDisabled reports access to a block retired for wear-out.
var ErrBlockDisabled = errors.New("core: block is disabled")

// ErrChipFailed reports an operation that cannot proceed because a chip
// (or one chip too many) is failed: remapping around a second failure,
// migrating with a dead parity chip, and similar chip-level dead ends.
var ErrChipFailed = errors.New("core: chip failed")

// ErrMigrationInProgress reports an operation that conflicts with an
// active online degraded-mode migration (e.g. starting a second one, or
// entering degraded mode mid-migration).
var ErrMigrationInProgress = errors.New("core: migration in progress")

// OMVProvider supplies old memory values (OMVs) of dirty persistent-memory
// blocks, normally the LLC with SAM/OMV tag bits (Sec V-D). A provider
// returning (nil, false) forces the controller to fetch the OMV from
// memory, paying the read-modify-write bandwidth.
type OMVProvider interface {
	// OMV returns the block's old memory value if the provider holds it.
	OMV(block int64) ([]byte, bool)
}

// NoOMV is an OMVProvider that never hits; every write pays an OMV fetch
// from memory. Useful as an ablation baseline.
type NoOMV struct{}

// OMV implements OMVProvider.
func (NoOMV) OMV(int64) ([]byte, bool) { return nil, false }

// Stats counts controller activity. BlockFetches approximates bus traffic
// in 64B-block transfers, the unit behind the paper's bandwidth-overhead
// numbers.
//
// Concurrency: demand-path methods (ReadBlockInto, WriteBlock, ...) mutate the
// counters without locking, matching the Controller's single-owner
// contract. BootScrub and PatrolScrub instead publish their counter
// updates under an internal lock, so Stats and ResetStats MAY be called
// concurrently with either scrub (e.g. a boot-progress monitor) but MUST
// NOT race demand reads or writes.
type Stats struct {
	Reads  int64
	Writes int64

	// Runtime read outcomes (Fig 9).
	ReadsClean        int64 // no RS corrections needed
	ReadsRSCorrected  int64 // accepted opportunistic RS correction (<= threshold)
	ReadsVLEWFallback int64 // exceeded threshold or RS-uncorrectable; VLEWs fetched

	BitsCorrectedRS   int64 // symbols corrected by accepted RS decodes
	BitsCorrectedVLEW int64 // bits corrected through VLEW fallback/scrub

	ChipFailuresCorrected int64
	Uncorrectable         int64

	// Write path.
	OMVHits   int64 // old value supplied by the LLC
	OMVMisses int64 // old value fetched from memory (extra read + send-back)

	// Bus traffic in block transfers.
	BlockFetches int64 // reads issued to the rank, incl. VLEW fetches
	BlockWrites  int64 // write transfers to the rank

	// Boot scrub.
	ScrubbedVLEWs      int64
	ScrubCorrections   int64 // bit corrections applied during scrub
	ScrubUncorrectable int64

	// Online degraded-mode migration (internal/guard): whole bands (one
	// old-layout VLEW span) rewritten into the striped layout.
	BandsMigrated int64
}

// Add accumulates o into s field by field; scrubs use it to publish their
// whole contribution in one locked step, and the sharded engine uses it to
// aggregate per-shard controller snapshots on demand.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadsClean += o.ReadsClean
	s.ReadsRSCorrected += o.ReadsRSCorrected
	s.ReadsVLEWFallback += o.ReadsVLEWFallback
	s.BitsCorrectedRS += o.BitsCorrectedRS
	s.BitsCorrectedVLEW += o.BitsCorrectedVLEW
	s.ChipFailuresCorrected += o.ChipFailuresCorrected
	s.Uncorrectable += o.Uncorrectable
	s.OMVHits += o.OMVHits
	s.OMVMisses += o.OMVMisses
	s.BlockFetches += o.BlockFetches
	s.BlockWrites += o.BlockWrites
	s.ScrubbedVLEWs += o.ScrubbedVLEWs
	s.ScrubCorrections += o.ScrubCorrections
	s.ScrubUncorrectable += o.ScrubUncorrectable
	s.BandsMigrated += o.BandsMigrated
}

// Config tunes the controller.
type Config struct {
	// Threshold is the maximum number of RS corrections accepted at
	// runtime before falling back to VLEWs (2 in the paper, Sec V-C).
	Threshold int
	// ScrubWorkers sets the boot-scrub worker-pool size. Workers scan
	// disjoint (chip, bank) shards, so results are independent of the
	// worker count. Zero means GOMAXPROCS; negative is rejected.
	ScrubWorkers int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config { return Config{Threshold: 2} }

// Controller drives one persistent-memory rank with the proposed scheme.
// It is not safe for concurrent use, mirroring a per-channel controller,
// with one documented exception: Stats and ResetStats take an internal
// lock and may run concurrently with BootScrub and PatrolScrub (see the
// Stats type's concurrency note).
type Controller struct {
	rank     *rank.Rank
	rsCode   *rs.Code
	cfg      Config
	omv      OMVProvider
	disabled map[int64]bool

	// statsMu serialises Stats/ResetStats against the scrubs' batched
	// counter publication. Demand paths mutate stats without it. The
	// per-chip telemetry shares the lock and the contract.
	//chipkill:lock core.stats level=50
	statsMu sync.Mutex
	stats   Stats
	tel     Telemetry

	// layout is the rank's layout (Sec V-E degraded mode and the online
	// migration into it), shared by every controller over the rank.
	layout *MigrationState

	// Persistent working buffers for the demand paths. The single-owner
	// contract means at most one demand operation is in flight, so one set
	// per controller makes steady-state reads and writes allocation-free.
	readCheckBuf []byte // RS check bytes of the block being read
	vlewCheckBuf []byte // check bytes recovered from the parity chip's VLEW
	deltaBuf     []byte // old XOR new data for writes
	checkDelta   []byte // RS check bytes for writes: the delta on the XOR path, the full check on raw writes
	internalBuf  []byte // OMV fetches and other internal reads

	// solver reconstructs chip solverChip's eight symbols of a block; built
	// on first use (chipSolver) and kept, since a chip failure is sticky.
	solver     *rs.ErasureSolver
	solverChip int

	// Correction-path scratch, reused across corrections so reads under
	// drift stay allocation-free: RS corrections land in corrBuf via the
	// DecodeAppend family, and the VLEW fallback gathers each chip's VLEW
	// into one reusable data/code pair.
	corrBuf        []rs.Correction
	vlewDataBuf    []byte
	vlewCodeBuf    []byte
	failedChipsBuf []int
}

// NewController wires a controller to a rank. The rank must use the
// paper's 8-byte chip access so that one block carries 64 data bytes and 8
// RS check bytes. omv may be nil, meaning writes always fetch OMVs from
// memory. It is NewControllers with n = 1.
func NewController(r *rank.Rank, cfg Config, omv OMVProvider) (*Controller, error) {
	cs, err := NewControllers(r, cfg, omv, 1)
	if err != nil {
		return nil, err
	}
	return cs[0], nil
}

// NewControllers wires n controllers to one rank, as an engine's shards
// use it: each has its own scratch, counters and telemetry, and all of
// them share the rank's layout (see MigrationState) and one per-block RS
// code, so a migration begun or advanced through any of them is seen by
// all.
func NewControllers(r *rank.Rank, cfg Config, omv OMVProvider, n int) ([]*Controller, error) {
	bb := r.Config().BlockBytes()
	checkBytes := r.Config().ChipAccessBytes
	code, err := rs.New(bb, checkBytes)
	if err != nil {
		return nil, fmt.Errorf("core: sizing per-block RS: %w", err)
	}
	if cfg.Threshold < 0 || cfg.Threshold > code.MaxErrors() {
		return nil, fmt.Errorf("core: threshold %d outside [0,%d]", cfg.Threshold, code.MaxErrors())
	}
	if cfg.ScrubWorkers < 0 {
		return nil, fmt.Errorf("core: scrub workers %d must be >= 0", cfg.ScrubWorkers)
	}
	if n < 1 {
		return nil, fmt.Errorf("core: %d controllers, want >= 1", n)
	}
	if omv == nil {
		omv = NoOMV{}
	}
	layout := &MigrationState{blocks: r.Blocks()}
	layout.chip.Store(-1)
	cs := make([]*Controller, n)
	for i := range cs {
		cs[i] = &Controller{
			rank:         r,
			rsCode:       code,
			cfg:          cfg,
			omv:          omv,
			layout:       layout,
			tel:          Telemetry{Chips: make([]ChipTelemetry, r.NumChips())},
			disabled:     make(map[int64]bool),
			readCheckBuf: make([]byte, checkBytes),
			vlewCheckBuf: make([]byte, checkBytes),
			deltaBuf:     make([]byte, bb),
			checkDelta:   make([]byte, checkBytes),
			internalBuf:  make([]byte, bb),

			corrBuf:        make([]rs.Correction, 0, checkBytes),
			vlewDataBuf:    make([]byte, r.Config().Geometry.VLEWDataBytes),
			vlewCodeBuf:    make([]byte, r.Config().Geometry.VLEWCodeBytes),
			failedChipsBuf: make([]int, 0, r.NumChips()),
		}
	}
	return cs, nil
}

// Rank returns the underlying rank.
func (c *Controller) Rank() *rank.Rank { return c.rank }

// RS returns the per-block Reed-Solomon code, shared by every controller
// over the rank.
func (c *Controller) RS() *rs.Code { return c.rsCode }

// Stats returns a snapshot of the controller's counters. It is safe to
// call concurrently with BootScrub and PatrolScrub, but not with demand
// reads/writes (see the Stats type's concurrency note).
func (c *Controller) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// ResetStats zeroes the counters (e.g. after warmup). Same concurrency
// contract as Stats.
func (c *Controller) ResetStats() {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	c.stats = Stats{}
}

// addStats publishes a batched counter delta under the stats lock; the
// scrubs use it so monitors can snapshot concurrently.
func (c *Controller) addStats(d Stats) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	c.stats.Add(d)
}

// DisableBlock retires a worn-out block (Sec V-E). The VLEW code bits are
// updated as if the block's physical bits were zero, keeping the VLEW
// decodable for its surviving blocks.
func (c *Controller) DisableBlock(block int64) {
	if c.disabled[block] {
		return
	}
	// Zero the block's contribution so VLEW code bits stay consistent:
	// writing zeros via the XOR path of the block's layout updates data
	// and code bits together.
	if data, err := c.readForInternalUse(block); err == nil {
		c.writeDelta(block, data) // delta = current XOR zero = current
	}
	c.disabled[block] = true
}

// BlockDisabled reports whether a block has been retired.
func (c *Controller) BlockDisabled(block int64) bool { return c.disabled[block] }

// ReadBlockInto implements the runtime read path (Fig 9) into a
// caller-owned buffer of BlockBytes(): RS-check the block, accept
// opportunistic correction up to the threshold, otherwise fall back to
// VLEW correction, and treat a VLEW-uncorrectable chip as failed.
// The steady-state (clean or RS-corrected) path performs zero allocations:
// chips copy straight into dst, the RS check runs one table-driven pass,
// and all scratch lives in per-controller buffers or the decoder pool. On
// error, dst's contents are unspecified.
//
//chipkill:noalloc
func (c *Controller) ReadBlockInto(block int64, dst []byte) error {
	if len(dst) != c.rank.Config().BlockBytes() {
		//chipkill:allow noalloc caller bug, not a demand read
		return fmt.Errorf("core: ReadBlockInto: got %d byte buffer, want %d", len(dst), c.rank.Config().BlockBytes())
	}
	if c.disabled[block] {
		//chipkill:allow noalloc disabled-block error path is cold
		return fmt.Errorf("block %d: %w", block, ErrBlockDisabled)
	}
	c.stats.Reads++
	if c.blockStriped(block) {
		return c.readDegraded(dst, block)
	}
	return c.readCorrectedInto(dst, block)
}

// blockStriped reports whether a block must be accessed through the
// striped (degraded) layout: whether the rank's cursor has passed it. The
// cursor is loaded after the caller has taken the block's bank lock (or
// owns the controller outright), and bands only migrate under their own
// bank's lock, so the answer cannot change while the operation runs.
func (c *Controller) blockStriped(block int64) bool {
	return block < c.layout.Cursor()
}

// readForInternalUse reads and corrects a block without counting it as a
// demand read. The returned slice aliases the controller's internal buffer
// and is valid until the next internal read.
//
//chipkill:noalloc
func (c *Controller) readForInternalUse(block int64) ([]byte, error) {
	var err error
	if c.blockStriped(block) {
		err = c.readDegraded(c.internalBuf, block)
	} else {
		err = c.readCorrectedInto(c.internalBuf, block)
	}
	if err != nil {
		return nil, err
	}
	return c.internalBuf, nil
}

// readCorrectedInto is the zero-alloc demand read body: raw fetch, RS
// check, and only on failure the allocating correction machinery.
//
//chipkill:noalloc
func (c *Controller) readCorrectedInto(dst []byte, block int64) error {
	c.rank.ReadBlockRawInto(block, dst, c.readCheckBuf)
	c.stats.BlockFetches++
	// Fast path: most reads are clean, and Check is one sliced LFSR pass
	// plus an 8-byte compare — no decoder setup, no allocations.
	if c.rsCode.Check(dst, c.readCheckBuf) {
		c.stats.ReadsClean++
		return nil
	}
	//chipkill:allow noalloc decode draws from its scratch pool and appends into the pre-sized corrBuf; single-symbol drift corrections run allocation-free end to end
	corrections, err := c.rsCode.DecodeLimitedAppend(c.corrBuf, dst, c.readCheckBuf, c.cfg.Threshold)
	if err == nil {
		c.stats.ReadsRSCorrected++
		c.stats.BitsCorrectedRS += int64(len(corrections))
		for _, corr := range corrections {
			c.tel.Chips[c.chipOfSymbol(corr.Pos)].RSCorrections++
		}
		return nil
	}
	// Threshold exceeded or RS-uncorrectable: VLEW fallback (Sec V-C).
	c.stats.ReadsVLEWFallback++
	//chipkill:allow noalloc VLEW fallback models extra device traffic; allocation is the least of its costs
	return c.vlewCorrectBlockInto(dst, block)
}

// chipSolver returns the RS erasure solver for chip ci, built on first use
// and kept, since a chip failure is sticky.
func (c *Controller) chipSolver(ci int) *rs.ErasureSolver {
	if c.solver == nil || c.solverChip != ci {
		c.solver, c.solverChip = chipErasureSolver(c.rsCode, ci), ci
	}
	return c.solver
}

// NewChipSolver builds the RS erasure solver ScrubRebuild takes for chip ci
// (data or parity) of ranks shaped like r. It panics if ci is not one of
// r's chips.
func NewChipSolver(r *rank.Rank, ci int) *rs.ErasureSolver {
	code, err := rs.New(r.Config().BlockBytes(), r.Config().ChipAccessBytes)
	if err != nil {
		panic(fmt.Sprintf("core: sizing per-block RS: %v", err))
	}
	return chipErasureSolver(code, ci)
}

// chipErasureSolver builds code's solver for chip ci's symbols: chip ci
// holds codeword positions ci*r .. ci*r+r-1, r = code.R().
func chipErasureSolver(code *rs.Code, ci int) *rs.ErasureSolver {
	pos := make([]int, code.R())
	for i := range pos {
		pos[i] = ci*len(pos) + i
	}
	solver, err := code.NewErasureSolver(pos)
	if err != nil {
		panic(fmt.Sprintf("core: erasure solver for chip %d: %v", ci, err))
	}
	return solver
}

// vlewFetchBlocks is the bus cost of fetching one VLEW of every chip in
// lockstep: its data blocks plus code transfer blocks. The paper counts
// 36 extra block transfers.
func (c *Controller) vlewFetchBlocks() int64 {
	g, n := c.rank.Config().Geometry, c.rank.Config().ChipAccessBytes
	return int64(g.VLEWDataBytes/n) + int64((g.VLEWCodeBytes+n-1)/n)
}

// vlewCorrectBlockInto corrects one block through the VLEWs of every chip,
// then lets the per-block RS handle any chip whose VLEW was uncorrectable
// (a chip-level fault) via erasure correction.
func (c *Controller) vlewCorrectBlockInto(dst []byte, block int64) error {
	rcfg := c.rank.Config()
	loc := c.rank.Locate(block)
	v := loc.VLEWIndex(rcfg.Geometry.VLEWDataBytes)
	inOff := loc.Col % rcfg.Geometry.VLEWDataBytes
	n := rcfg.ChipAccessBytes
	code := rcfg.VLEWCode

	c.stats.BlockFetches += c.vlewFetchBlocks()

	check := c.vlewCheckBuf
	checkOK := false
	failedChips := c.failedChipsBuf[:0]
	vData, vCode := c.vlewDataBuf, c.vlewCodeBuf
	for ci := 0; ci < c.rank.NumChips(); ci++ {
		chip := c.rank.Chip(ci)
		chip.ReadVLEWInto(vData, vCode, loc.Bank, loc.Row, v)
		fixed, derr := code.Decode(vData, vCode[:code.ParityBytes()])
		if derr != nil {
			failedChips = append(failedChips, ci)
			c.tel.Chips[ci].VLEWFailures++
			continue
		}
		c.stats.BitsCorrectedVLEW += int64(fixed)
		if ci == c.rank.ParityChipIndex() {
			copy(check, vData[inOff:inOff+n])
			checkOK = true
		} else {
			copy(dst[ci*n:(ci+1)*n], vData[inOff:inOff+n])
		}
	}

	switch len(failedChips) {
	case 0:
		// All chips' bit errors corrected; verify with RS for safety.
		if corr, err := c.rsCode.DecodeAppend(c.corrBuf, dst, check, nil); err == nil {
			c.stats.BitsCorrectedRS += int64(len(corr))
		} else {
			c.stats.Uncorrectable++
			c.tel.DUEs++
			return fmt.Errorf("block %d: VLEW-corrected data fails RS: %w", block, ErrUncorrectable)
		}
	case 1:
		ci := failedChips[0]
		c.stats.ChipFailuresCorrected++
		if ci == c.rank.ParityChipIndex() {
			// Data chips are fine; the check bytes are lost but the data
			// is already corrected.
			break
		}
		if !checkOK {
			c.stats.Uncorrectable++
			c.tel.DUEs++
			return fmt.Errorf("block %d: chip %d failed and parity unavailable: %w", block, ci, ErrUncorrectable)
		}
		// Reconstruct the failed chip's bytes via RS erasure; the solve
		// replaces whatever the chip returned, so dst needs no pre-zeroing.
		c.chipSolver(ci).Solve(dst, check)
		c.tel.Chips[ci].ErasureRepairs++
	default:
		c.stats.Uncorrectable++
		c.tel.DUEs++
		return fmt.Errorf("block %d: %d chips uncorrectable: %w", block, len(failedChips), ErrUncorrectable)
	}
	return nil
}

// WriteBlock implements the runtime write path (Fig 12): obtain the old
// memory value (from the LLC's OMV store when possible, otherwise from
// memory with full correction), then send the bitwise sum of old and new
// data — and of old and new RS check bytes — to the rank.
//
// Both steady-state legs are allocation-free, in either layout: an OMV hit
// goes straight to writeDelta, and a miss reads the old value into the
// controller's internal buffer through the zero-alloc corrected read.
//
//chipkill:noalloc
func (c *Controller) WriteBlock(block int64, newData []byte) error {
	if len(newData) != c.rank.Config().BlockBytes() {
		//chipkill:allow noalloc caller bug, not a demand write
		return fmt.Errorf("core: WriteBlock: got %d bytes, want %d", len(newData), c.rank.Config().BlockBytes())
	}
	if c.disabled[block] {
		//chipkill:allow noalloc disabled-block error path is cold
		return fmt.Errorf("block %d: %w", block, ErrBlockDisabled)
	}
	c.stats.Writes++
	//chipkill:allow noalloc OMV provider is an interface; the shipped providers (LLC model, NoOMV) do not allocate on lookup
	old, hit := c.omv.OMV(block)
	if hit {
		c.stats.OMVHits++
	} else {
		c.stats.OMVMisses++
		var err error
		old, err = c.readForInternalUse(block)
		if err != nil {
			//chipkill:allow noalloc OMV fetch failure is a DUE path, already off the steady state
			return fmt.Errorf("core: fetching OMV for block %d: %w", block, err)
		}
	}
	delta := c.deltaBuf
	copy(delta, old)
	gf.XORBytes(delta, newData) // word-wise: the delta is old XOR new
	c.writeDelta(block, delta)
	return nil
}

// writeDelta sends a data delta to the rank in the block's layout. In the
// original one the matching RS check delta (linear: check(old) XOR
// check(new) = check(old XOR new)) goes with it as one bitwise-sum write;
// a striped block takes writeDegraded.
//
//chipkill:noalloc
func (c *Controller) writeDelta(block int64, delta []byte) {
	if c.blockStriped(block) {
		c.writeDegraded(block, delta)
	} else {
		c.rsCode.EncodeInto(c.checkDelta, delta)
		c.rank.WriteBlockXOR(block, delta, c.checkDelta)
	}
	c.stats.BlockWrites++
}

// WriteBlockInitial writes a block conventionally (raw data on the bus),
// used to populate memory before measurement, by scrub write-back and by
// the fleet's write-through to a replica, which puts it on a demand path.
//
//chipkill:noalloc
func (c *Controller) WriteBlockInitial(block int64, data []byte) error {
	if len(data) != c.rank.Config().BlockBytes() {
		//chipkill:allow noalloc caller bug, not a demand write
		return fmt.Errorf("core: WriteBlockInitial: got %d bytes, want %d", len(data), c.rank.Config().BlockBytes())
	}
	if c.blockStriped(block) {
		// A raw lockstep write would clobber the remapped parity-chip data
		// and leave the striped code word stale; XOR the change in instead.
		old, err := c.readForInternalUse(block)
		if err != nil {
			//chipkill:allow noalloc DUE path, off the steady state
			return fmt.Errorf("core: WriteBlockInitial: reading block %d: %w", block, err)
		}
		gf.XORBytes(old, data) // old aliases internalBuf: the delta in place
		c.writeDelta(block, old)
		return nil
	}
	c.rsCode.EncodeInto(c.checkDelta, data)
	c.rank.WriteBlockRaw(block, data, c.checkDelta)
	c.stats.BlockWrites++
	return nil
}
