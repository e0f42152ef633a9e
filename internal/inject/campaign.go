package inject

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chipkillpm/internal/core"
	"chipkillpm/internal/engine"
	"chipkillpm/internal/fleet"
	"chipkillpm/internal/rank"
)

// Campaign is a declarative, fully seeded fault-injection scenario: a
// rank geometry, a randomized read/write workload, and a script of fault
// events fired at workload operation indices. Two runs of the same
// campaign with the same seed produce identical reports.
type Campaign struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`

	// Description is the one-line human summary faultcampaign -list
	// prints under the suite heading.
	Description string `json:"description,omitempty"`

	// Rank geometry (paper-shaped chips). Zero values default to
	// 2 banks x 8 rows x 1024 B rows = 2048 blocks.
	Banks       int `json:"banks,omitempty"`
	RowsPerBank int `json:"rows_per_bank,omitempty"`
	RowBytes    int `json:"row_bytes,omitempty"`

	// Ops random operations run after initialisation; each is a read
	// (oracle-checked) or a write with probability WriteFrac.
	Ops       int     `json:"ops"`
	WriteFrac float64 `json:"write_frac,omitempty"`

	// OMVHitRate is the probability the LLC supplies a write's old
	// memory value (otherwise the controller pays the memory fetch).
	OMVHitRate float64 `json:"omv_hit_rate,omitempty"`

	// ScrubWorkers sizes the boot-scrub pool (0 = GOMAXPROCS).
	ScrubWorkers int `json:"scrub_workers,omitempty"`

	// EngineShards > 0 drives every demand operation through a sharded
	// engine.Engine with that many shards instead of a bare controller.
	// The workload itself stays serial (determinism), so a campaign run
	// in engine mode must report identical totals to the serial run —
	// which is exactly what the engine-mode tests assert.
	EngineShards int `json:"engine_shards,omitempty"`

	// ProbeStatsDuringScrub spawns a goroutine hammering Controller.
	// Stats while each BootScrub runs, exercising the documented stats
	// concurrency contract (meaningful under -race).
	ProbeStatsDuringScrub bool `json:"probe_stats,omitempty"`

	// Guard switches the campaign to a supervisor scenario (see
	// GuardSpec): instead of the scripted event loop, the harness runs the
	// internal/guard health supervisor against live traffic. Guard
	// campaigns always drive the sharded engine.
	Guard *GuardSpec `json:"guard,omitempty"`

	// Fleet switches the campaign to a multi-rank fleet scenario (see
	// FleetSpec): the demand backend becomes a fleet.Fleet and the
	// scenario drives rank-scale faults. Mutually exclusive with Guard,
	// Events and EngineShards.
	Fleet *FleetSpec `json:"fleet,omitempty"`

	Events []Event `json:"events,omitempty"`
	Expect Expect  `json:"expect"`
}

// backend is what a campaign drives: the demand contract plus the two
// rank-wide transitions scripted events use. *core.Controller and
// *engine.Engine satisfy it as they are.
type backend interface {
	ReadBlockInto(block int64, dst []byte) error
	WriteBlock(block int64, data []byte) error
	WriteBlockInitial(block int64, data []byte) error
	Stats() core.Stats
	BootScrub() core.ScrubReport
	EnterDegradedMode(chip int) error
}

// fleetBackend narrows a fleet to backend: demand counters are the sum
// over its ranks, and the rank-wide transitions do not exist at fleet
// level (NewHarness rejects scripted events on fleet campaigns).
type fleetBackend struct{ *fleet.Fleet }

func (f fleetBackend) Stats() core.Stats { return f.Fleet.Stats().Demand }

func (f fleetBackend) BootScrub() core.ScrubReport {
	panic("inject: fleet campaigns script no boot scrub")
}

func (f fleetBackend) EnterDegradedMode(int) error {
	panic("inject: fleet campaigns script no degraded-mode entry")
}

// Harness couples one demand backend (a bare controller, a sharded
// engine when the campaign sets EngineShards, or a fleet) + rank stack
// with the shadow-map oracle and drives a campaign through it.
type Harness struct {
	c      Campaign
	suite  string
	rng    *rand.Rand
	rank   *rank.Rank     // nil in fleet mode
	be     backend        // chosen in NewHarness, re-pointed by rebuild
	eng    *engine.Engine // be's engine in engine mode, else nil
	fleet  *fleet.Fleet   // be's fleet in fleet mode, else nil
	oracle *Oracle
	omv    *omvSource
	rep    *CampaignReport

	blocks     []int64 // committed blocks, ascending
	blockBytes int
	rbuf       []byte // the campaign goroutine's read buffer (readBlock)
	degraded   bool
	armDelta   bool
	armOMV     bool
	opIndex    int64
}

// campaignSeed mixes the campaign name into the base seed so sibling
// campaigns of a suite draw independent streams.
func campaignSeed(name string, seed int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64()&0x7fffffffffffffff)
}

// NewHarness builds the stack for one campaign.
func NewHarness(suite string, c Campaign) (*Harness, error) {
	if c.Banks == 0 {
		c.Banks = 2
	}
	if c.RowsPerBank == 0 {
		c.RowsPerBank = 8
	}
	if c.RowBytes == 0 {
		c.RowBytes = 1024
	}
	if c.Guard != nil && c.EngineShards <= 0 {
		c.EngineShards = c.Banks // guard scenarios need the sharded engine
	}
	seed := campaignSeed(c.Name, c.Seed)
	h := &Harness{
		c:      c,
		suite:  suite,
		rng:    rand.New(rand.NewSource(seed)),
		oracle: NewOracle(),
		rep: &CampaignReport{
			Name:     c.Name,
			Suite:    suite,
			Seed:     c.Seed,
			Geometry: fmt.Sprintf("%dx%dx%dB", c.Banks, c.RowsPerBank, c.RowBytes),
			Ops:      int64(c.Ops),
			Expect:   c.Expect,
			Repro:    fmt.Sprintf("go run ./cmd/faultcampaign -suite %s -campaign %s -seed %d", suite, c.Name, c.Seed),
		},
	}
	if c.Fleet != nil {
		if c.Guard != nil || len(c.Events) > 0 || c.EngineShards > 0 {
			return nil, fmt.Errorf("inject: fleet campaign %q cannot combine guard, events, or engine knobs", c.Name)
		}
		spec := *c.Fleet
		if spec.Ranks < 2 {
			return nil, fmt.Errorf("inject: fleet campaign %q has %d ranks, want at least 2", c.Name, spec.Ranks)
		}
		fl, err := fleet.New(h.fleetCfg(spec))
		if err != nil {
			return nil, fmt.Errorf("inject: building fleet: %w", err)
		}
		h.fleet, h.be = fl, fleetBackend{fl}
		h.blockBytes = fl.BlockBytes()
		h.rbuf = make([]byte, h.blockBytes)
		h.rep.Geometry = fmt.Sprintf("%dr x %dx%dx%dB", spec.Ranks, c.Banks, c.RowsPerBank, c.RowBytes)
		h.rep.Blocks = fl.Blocks()
		return h, nil
	}
	r, err := rank.New(rank.PaperConfig(c.Banks, c.RowsPerBank, c.RowBytes, seed+1))
	if err != nil {
		return nil, fmt.Errorf("inject: building rank: %w", err)
	}
	if g := c.Guard; g != nil && g.killsChip() && (g.KillChip < 0 || g.KillChip >= r.Config().DataChips) {
		return nil, fmt.Errorf("inject: guard campaign %q kills chip %d, not a data chip", c.Name, g.KillChip)
	}
	h.rank = r
	h.rep.Blocks = r.Blocks()
	h.blockBytes = r.Config().BlockBytes()
	h.rbuf = make([]byte, h.blockBytes)
	h.omv = &omvSource{oracle: h.oracle, rng: rand.New(rand.NewSource(seed + 2)), hitRate: c.OMVHitRate}
	h.rep.EngineShards = c.EngineShards
	if err := h.rebuild(); err != nil {
		return nil, fmt.Errorf("inject: %w", err)
	}
	return h, nil
}

// rebuild brings up a cold single-rank backend over the rank — at
// construction and again after every simulated crash, when the previous
// one is discarded with its counters.
func (h *Harness) rebuild() error {
	if h.c.EngineShards > 0 {
		eng, err := engine.New(h.rank, h.engCfg())
		if err != nil {
			return fmt.Errorf("building engine: %w", err)
		}
		h.eng, h.be = eng, eng
		return nil
	}
	ctrl, err := core.NewController(h.rank, h.ctrlCfg(), h.omv)
	if err != nil {
		return fmt.Errorf("building controller: %w", err)
	}
	h.be = ctrl
	return nil
}

func (h *Harness) ctrlCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.ScrubWorkers = h.c.ScrubWorkers
	return cfg
}

func (h *Harness) engCfg() engine.Config {
	return engine.Config{Shards: h.c.EngineShards, Core: h.ctrlCfg(), OMV: h.omv}
}

// Demand-backend indirection: every workload touch of memory goes through
// these, so serial-controller and sharded-engine campaigns share one code
// path and must produce identical reports.

// readBlock reads into h.rbuf and returns it: the result is valid until
// the next read.
func (h *Harness) readBlock(b int64) ([]byte, error) {
	err := h.be.ReadBlockInto(b, h.rbuf)
	return h.rbuf, err
}

func (h *Harness) writeBlock(b int64, data []byte) error { return h.be.WriteBlock(b, data) }

func (h *Harness) writeInitial(b int64, data []byte) error { return h.be.WriteBlockInitial(b, data) }

func (h *Harness) stats() core.Stats { return h.be.Stats() }

// Rank exposes the rank under test.
func (h *Harness) Rank() *rank.Rank { return h.rank }

// Run executes the campaign: commit every block, interleave the
// randomized workload with scripted events, then verify every committed
// block byte-for-byte against the oracle.
func (h *Harness) Run() *CampaignReport {
	start := time.Now()
	h.commitAll()
	switch {
	case h.c.Fleet != nil:
		h.runFleet()
		h.fleetSweep() // every committed block: byte-exact or typed-contained
		h.captureFleetStats()
	case h.c.Guard != nil:
		h.runGuard()
		h.sweep()
	default:
		h.runScripted()
		h.sweep() // final byte-for-byte verification of every committed block
	}
	h.rep.ElapsedMS = time.Since(start).Milliseconds()
	h.rep.finish()
	return h.rep
}

// runScripted interleaves the randomized workload with scripted events.
func (h *Harness) runScripted() {
	events := append([]Event(nil), h.c.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].AtOp < events[j].AtOp })
	next := 0
	for op := 0; op <= h.c.Ops; op++ {
		h.opIndex = int64(op)
		for next < len(events) && events[next].AtOp <= op {
			h.apply(events[next])
			next++
		}
		if op == h.c.Ops {
			break
		}
		h.randomOp()
	}
	for ; next < len(events); next++ { // events scripted past the op budget
		h.apply(events[next])
	}
}

// RunCampaign builds and runs one campaign under a suite label.
func RunCampaign(suite string, c Campaign) *CampaignReport {
	h, err := NewHarness(suite, c)
	if err != nil {
		return &CampaignReport{Name: c.Name, Suite: suite, Seed: c.Seed, Pass: false, Reason: err.Error()}
	}
	return h.Run()
}

// commitAll commits every block of the backend with random data.
func (h *Harness) commitAll() {
	for b := int64(0); b < h.rep.Blocks; b++ { // the backend's capacity, set in NewHarness
		data := make([]byte, h.blockBytes)
		h.rng.Read(data)
		if err := h.writeInitial(b, data); err != nil {
			h.fail("write", b, fmt.Sprintf("init: %v", err))
			continue
		}
		h.oracle.Commit(b, data)
		h.blocks = append(h.blocks, b)
	}
}

// randomOp performs one workload operation on a random committed block.
func (h *Harness) randomOp() {
	b := h.blocks[h.rng.Intn(len(h.blocks))]
	if h.rng.Float64() < h.c.WriteFrac {
		h.writeOp(b)
		return
	}
	h.readAndCheck(b)
}

// writeOp writes fresh random data, applying any armed one-shot
// write-path fault, and commits the *intended* data to the oracle.
func (h *Harness) writeOp(b int64) {
	data := make([]byte, h.blockBytes)
	h.rng.Read(data)
	if h.armOMV {
		h.armOMV = false
		h.omv.corruptNext = true
		h.rep.OMVCorrupts++
	}
	armDelta := h.armDelta
	h.armDelta = false
	if err := h.writeBlock(b, data); err != nil {
		h.fail("write", b, err.Error())
		return
	}
	h.rep.Writes++
	if armDelta {
		h.corruptStoredDelta(b)
		h.rep.DeltaCorrupts++
	}
	h.oracle.Commit(b, data)
}

// corruptStoredDelta models a one-bit bus fault on the XOR delta to one
// data chip: the chip folds the corrupted delta into its stored data and
// its VLEW code bits (so the chip is internally consistent), while the
// parity chip's RS check reflects the true delta. The per-block RS must
// flag the mismatch on the next read.
func (h *Harness) corruptStoredDelta(b int64) {
	loc := h.rank.Locate(b)
	n := h.rank.Config().ChipAccessBytes
	ci := h.rng.Intn(h.rank.Config().DataChips)
	off := h.rng.Intn(n)
	bit := uint(h.rng.Intn(8))
	h.rank.Chip(ci).WriteXOR(loc.Bank, loc.Row, loc.Col+off, []byte{1 << bit})
}

// readAndCheck reads one block and classifies the outcome against the
// oracle, distinguishing silent corruption from honest DUEs.
func (h *Harness) readAndCheck(b int64) Outcome {
	want, ok := h.oracle.Expected(b)
	if !ok {
		return OutcomeClean
	}
	before := h.stats()
	got, err := h.readBlock(b)
	after := h.stats()
	h.rep.Reads++
	if after.ReadsVLEWFallback > before.ReadsVLEWFallback {
		h.rep.Fallback++
	}
	if err != nil {
		h.rep.DUE++
		h.fail("due", b, err.Error())
		return OutcomeDUE
	}
	if !bytes.Equal(got, want) {
		h.rep.SDC++
		h.fail("sdc", b, "read returned wrong data without error")
		return OutcomeSDC
	}
	if after.ReadsClean > before.ReadsClean {
		h.rep.Clean++
		return OutcomeClean
	}
	if after.ReadsRSCorrected > before.ReadsRSCorrected {
		h.rep.CorrectedRS++
	}
	return OutcomeCorrected
}

// sweep reads and classifies every committed block in ascending order.
func (h *Harness) sweep() {
	for _, b := range h.oracle.Blocks() {
		h.readAndCheck(b)
	}
}

// apply fires one scripted event. Events run between workload steps on
// the single campaign goroutine, so chip-level injections see a
// quiescent rank.
//
//chipkill:rankwide
func (h *Harness) apply(ev Event) {
	switch ev.Kind {
	case EvDrift:
		h.rep.BitsInjected += int64(h.rank.InjectRetentionErrors(ev.RBER))
	case EvFlip:
		h.applyFlips(ev)
	case EvChipKill:
		h.rank.FailChip(h.resolveChip(ev.Chip))
		h.rep.ChipKills++
	case EvCrashReboot:
		h.crashReboot(ev)
	case EvBootScrub:
		h.bootScrub()
	case EvEnterDegraded:
		if err := h.be.EnterDegradedMode(ev.Chip); err != nil {
			h.fail("event", -1, fmt.Sprintf("enter-degraded(%d): %v", ev.Chip, err))
			return
		}
		h.degraded = true
	case EvDeltaCorrupt:
		h.armDelta = true
	case EvOMVCorrupt:
		h.armOMV = true
	case EvSweep:
		h.sweep()
	default:
		h.fail("event", -1, fmt.Sprintf("unknown event kind %q", ev.Kind))
	}
}

// resolveChip maps the Event.Chip sentinels to a chip index.
func (h *Harness) resolveChip(chip int) int {
	switch chip {
	case ChipParity:
		return h.rank.ParityChipIndex()
	case ChipRandom:
		return h.rng.Intn(h.rank.Config().DataChips)
	default:
		return chip
	}
}

// applyFlips lands Event.Bits targeted single-bit faults inside committed
// blocks, in the requested region. Serial, like apply.
//
//chipkill:rankwide
func (h *Harness) applyFlips(ev Event) {
	rcfg := h.rank.Config()
	n := rcfg.ChipAccessBytes
	for i := 0; i < ev.Bits; i++ {
		b := h.blocks[h.rng.Intn(len(h.blocks))]
		loc := h.rank.Locate(b)
		bit := uint(h.rng.Intn(8))
		switch ev.Region {
		case RegionParity:
			h.rank.Chip(h.rank.ParityChipIndex()).
				FlipDataBit(loc.Bank, loc.Row, loc.Col+h.rng.Intn(n), bit)
		case RegionCode:
			ci := ev.Chip
			if ci < 0 {
				ci = h.rng.Intn(rcfg.DataChips)
			}
			v := loc.VLEWIndex(rcfg.Geometry.VLEWDataBytes)
			h.rank.Chip(ci).FlipCodeBit(loc.Bank, loc.Row, v,
				h.rng.Intn(rcfg.Geometry.VLEWCodeBytes), bit)
		default: // RegionData
			ci := ev.Chip
			if ci < 0 {
				ci = h.rng.Intn(rcfg.DataChips)
			}
			h.rank.Chip(ci).FlipDataBit(loc.Bank, loc.Row, loc.Col+h.rng.Intn(n), bit)
		}
		h.rep.FlipsInjected++
	}
}

// crashReboot drops all volatile state (EURs drain in the chips'
// power-fail window, per the paper's EUR design; the controller and its
// counters are rebuilt cold), lets the outage accumulate drift, reboots
// through BootScrub, and byte-verifies every committed block. The old
// engine (if any) is discarded before the chips are touched.
//
//chipkill:rankwide
func (h *Harness) crashReboot(ev Event) {
	h.rank.CloseAllRows()
	if err := h.rebuild(); err != nil {
		h.fail("event", -1, fmt.Sprintf("reboot: %v", err))
		return
	}
	h.rep.Crashes++
	if ev.RBER > 0 {
		h.rep.BitsInjected += int64(h.rank.InjectRetentionErrors(ev.RBER))
	}
	h.bootScrub()
	h.sweep()
}

// bootScrub runs BootScrub, optionally hammering the stats contract from
// a concurrent monitor goroutine.
func (h *Harness) bootScrub() {
	var stop chan struct{}
	var wg sync.WaitGroup
	if h.c.ProbeStatsDuringScrub {
		stop = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = h.stats()
				}
			}
		}()
	}
	// The harness drives the rank serially, so the rank-wide scan cannot
	// race demand traffic.
	rep := h.be.BootScrub()
	if stop != nil {
		close(stop)
		wg.Wait()
	}
	h.rep.Scrubs++
	h.rep.ScrubBitsFixed += rep.BitsCorrected
	if rep.Unrecoverable {
		h.fail("scrub", -1, rep.String())
	}
}

// fail records one failure (capped; the total stays exact).
func (h *Harness) fail(kind string, block int64, detail string) {
	h.rep.FailuresTotal++
	if len(h.rep.Failures) >= maxRecordedFailures {
		return
	}
	h.rep.Failures = append(h.rep.Failures, Failure{
		Op:     h.opIndex,
		Block:  block,
		Kind:   kind,
		Detail: detail,
		Repro:  h.rep.Repro,
	})
}

// omvSource supplies old memory values from the oracle with a configured
// hit rate, modelling the LLC's OMV-preserving cache; corruptNext arms a
// one-shot single-bit OMV fault (a hit, so the fault actually lands).
//
// The source is only coherent while the oracle is committed after every
// write — true for the serial workload. Concurrent guard workers bypass
// the oracle mid-flight (their shadows merge at the end), so they set
// disabled, forcing every write to fetch its OMV from memory; this also
// keeps the non-thread-safe rng off the engine's concurrent write path.
type omvSource struct {
	oracle      *Oracle
	rng         *rand.Rand
	hitRate     float64
	corruptNext bool
	disabled    atomic.Bool
}

// OMV implements core.OMVProvider.
func (o *omvSource) OMV(block int64) ([]byte, bool) {
	if o.disabled.Load() {
		return nil, false
	}
	want, ok := o.oracle.Expected(block)
	if !ok {
		return nil, false
	}
	if o.corruptNext {
		o.corruptNext = false
		bad := append([]byte(nil), want...)
		bit := o.rng.Intn(len(bad) * 8)
		bad[bit/8] ^= 1 << uint(bit%8)
		return bad, true
	}
	if o.rng.Float64() >= o.hitRate {
		return nil, false
	}
	return append([]byte(nil), want...), true
}
