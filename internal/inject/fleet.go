package inject

import (
	"errors"
	"fmt"
	"sync/atomic"

	"chipkillpm/internal/fleet"
	"chipkillpm/internal/guard"
)

// Fleet scenario names.
const (
	ScenarioFleetRankKill      = "fleet-rank-kill"
	ScenarioFleetRankKillLoad  = "fleet-rank-kill-load"
	ScenarioFleetChipRepair    = "fleet-chip-repair"
	ScenarioFleetDivergence    = "fleet-replica-divergence"
	ScenarioFleetKillMidRepair = "fleet-kill-during-repair"
	ScenarioFleetDoubleFault   = "fleet-double-fault"
)

// FleetSpec switches a campaign onto a multi-rank fleet: the demand
// backend becomes a fleet.Fleet (N ranks, each with its own engine and
// guard supervisor) and the scenario drives rank-scale faults —
// whole-rank kills, replica divergence, chip convictions repaired from
// replicas. Fleet campaigns ignore OMVHitRate (fleet engines fetch OMVs
// from memory) and are incompatible with EngineShards, Guard, and
// scripted Events.
type FleetSpec struct {
	Scenario string `json:"scenario"`
	// Ranks is the fleet width, at least 2 (the suite runs 3, and 2 for
	// double-fault).
	Ranks int `json:"ranks,omitempty"`
}

// The fleet scenarios' fixed shapes.
const (
	// fleetReplicaBands sizes each rank's replica pool.
	fleetReplicaBands = 8
	// fleetKillRank is the rank the kill scenarios fail.
	fleetKillRank = 1
	// fleetKillChip is the data chip conviction scenarios fail.
	fleetKillChip = 2
	// fleetKillChipB is double-fault's second chip, on the other rank.
	fleetKillChipB = 5
	// fleetReplicateBands is how many bands the scenario mirrors
	// explicitly before the fault lands.
	fleetReplicateBands = 6
	// fleetKillAfterBands is when kill-during-repair fails the replica
	// rank: after that many bands of the in-flight chip repair.
	fleetKillAfterBands = 3
)

// fleetCfg derives the fleet configuration for a campaign: replication
// runs policy-driven only in the scenario that tests the policy; every
// other scenario replicates explicitly so its fault targets are exact.
func (h *Harness) fleetCfg(spec FleetSpec) fleet.Config {
	seed := campaignSeed(h.c.Name, h.c.Seed)
	cfg := fleet.Config{
		Ranks:            spec.Ranks,
		Banks:            h.c.Banks,
		RowsPerBank:      h.c.RowsPerBank,
		RowBytes:         h.c.RowBytes,
		Seed:             seed + 1,
		ReplicaBands:     fleetReplicaBands,
		ReplicatePerTick: -1,
		Guard:            guard.Config{Seed: seed + 3},
	}
	switch spec.Scenario {
	case ScenarioFleetChipRepair:
		// The one scenario exercising the telemetry-driven policy: only
		// bands hot past three full passes qualify, two mirrors per tick.
		cfg.ReplicatePerTick = 2
		cfg.MinReplicaHeat = 3 * 32 // 3x the band's block count
	case ScenarioFleetDivergence:
		cfg.VerifyBandsPerTick = 64 // sweep everything each tick
	}
	return cfg
}

// runFleet executes the campaign's fleet scenario (the Run entry point
// for campaigns with a FleetSpec). The final sweep and stats capture run
// afterwards in Run.
func (h *Harness) runFleet() {
	spec := *h.c.Fleet
	h.rep.Fleet = &FleetReport{Scenario: spec.Scenario, Ranks: spec.Ranks}
	switch spec.Scenario {
	case ScenarioFleetRankKill:
		h.fleetRankKill(spec)
	case ScenarioFleetRankKillLoad:
		h.fleetRankKillLoad(spec)
	case ScenarioFleetChipRepair:
		h.fleetChipRepair()
	case ScenarioFleetDivergence:
		h.fleetDivergence()
	case ScenarioFleetKillMidRepair:
		h.fleetKillDuringRepair(spec)
	case ScenarioFleetDoubleFault:
		h.fleetDoubleFault()
	default:
		h.fail("fleet", -1, fmt.Sprintf("unknown fleet scenario %q", spec.Scenario))
	}
}

// victimBands returns the first n fleet bands whose primary is rank rk.
func (h *Harness) victimBands(rk, n int) []int64 {
	f := h.fleet
	var bands []int64
	for i := 0; i < n; i++ {
		bands = append(bands, int64(rk)+int64(i)*int64(f.NumRanks()))
	}
	return bands
}

// replicateOrFail mirrors the given bands, failing the campaign on any
// error.
func (h *Harness) replicateOrFail(bands []int64) {
	for _, band := range bands {
		if err := h.fleet.ReplicateBand(band); err != nil {
			h.fail("fleet", band*h.fleet.BandBlocks(), fmt.Sprintf("replicate band %d: %v", band, err))
		}
	}
}

// fleetSweep is the fleet campaign's final verification: every committed
// block either reads back byte-exact (through primary, failover, or
// read-repair) or — only when its rank died unreplicated — returns the
// typed contained failure. Anything else is an SDC or an unexpected DUE.
func (h *Harness) fleetSweep() {
	f := h.fleet
	for _, b := range h.oracle.Blocks() {
		if f.Servable(b) {
			h.readAndCheck(b)
			continue
		}
		h.rep.Reads++
		err := f.ReadBlockInto(b, h.rbuf)
		switch {
		case err == nil:
			h.rep.SDC++
			h.fail("sdc", b, "unservable block returned data")
		case !errors.Is(err, fleet.ErrRankFailed):
			h.fail("fleet", b, fmt.Sprintf("unservable block failed untyped: %v", err))
		default:
			h.rep.Fleet.SweptContained++
		}
	}
}

// captureFleetStats folds the fleet's counters, guard reports, and chip
// repair timings into the campaign report.
func (h *Harness) captureFleetStats() {
	f := h.fleet
	s := f.Stats()
	fr := h.rep.Fleet
	fr.RanksAlive = s.RanksAlive
	fr.ActiveReplicas = s.ActiveReplicas
	fr.BandsReplicated = s.BandsReplicated
	fr.FailoverReads = s.FailoverReads
	fr.FailoverWrites = s.FailoverWrites
	fr.ReadRepairs = s.ReadRepairs
	fr.DivergenceFixes = s.DivergenceFixes
	fr.ContainedDUEs = s.ContainedDUEs
	fr.RejectedWrites = s.RejectedWrites
	fr.RankKills = s.RankKills
	fr.ChipRepairs = s.ChipRepairs
	for _, pr := range s.PerRank {
		fr.Verdicts += pr.Guard.Verdicts
		fr.ExternalRepairs += pr.Guard.ExternalRepairs
	}
	var repBlocks, eraBlocks, repNS, eraNS int64
	for _, r := range f.Repairs() {
		repBlocks += r.ReplicaBlocks
		eraBlocks += r.ErasureBlocks
		repNS += r.ReplicaNS
		eraNS += r.ErasureNS
	}
	if repBlocks > 0 {
		fr.RepairReplicaNSPerBlock = float64(repNS) / float64(repBlocks)
	}
	if eraBlocks > 0 {
		fr.RepairErasureNSPerBlock = float64(eraNS) / float64(eraBlocks)
	}
	if fr.RepairReplicaNSPerBlock > 0 && fr.RepairErasureNSPerBlock > 0 {
		fr.RepairSpeedup = fr.RepairErasureNSPerBlock / fr.RepairReplicaNSPerBlock
	}
}

// fleetRankKill is the serial containment scenario: replicate a few of
// the victim rank's bands, kill the whole rank, and show the split —
// replicated bands keep serving reads and acknowledging writes through
// their replicas, unreplicated bands turn into typed contained failures,
// and the other ranks never notice.
func (h *Harness) fleetRankKill(spec FleetSpec) {
	f := h.fleet
	bands := h.victimBands(fleetKillRank, fleetReplicateBands)
	h.replicateOrFail(bands)

	for i := 0; i < h.c.Ops; i++ {
		h.randomOp()
	}
	f.KillRank(fleetKillRank)

	// Post-kill demand, by hand: writes to replicated bands must still
	// acknowledge (and then read back), writes to the victim's
	// unreplicated bands must reject typed.
	bb := f.BandBlocks()
	for i, band := range bands {
		b := band*bb + int64(i)
		data := make([]byte, h.blockBytes)
		h.rng.Read(data)
		if err := f.WriteBlock(b, data); err != nil {
			h.fail("write", b, fmt.Sprintf("post-kill write to replicated band: %v", err))
			continue
		}
		h.rep.Writes++
		h.oracle.Commit(b, data)
		h.rep.Fleet.AckedAfterKill++
	}
	deadBand := int64(fleetKillRank) + int64(fleetReplicateBands)*int64(f.NumRanks())
	data := make([]byte, h.blockBytes)
	h.rng.Read(data)
	if err := f.WriteBlock(deadBand*bb, data); !errors.Is(err, fleet.ErrRankFailed) {
		h.fail("fleet", deadBand*bb, fmt.Sprintf("post-kill write to unreplicated band: %v, want ErrRankFailed", err))
	}

	if s := f.Stats(); s.RanksAlive != spec.Ranks-1 {
		h.fail("fleet", -1, fmt.Sprintf("%d ranks alive after kill, want %d", s.RanksAlive, spec.Ranks-1))
	}
}

// fleetRankKillLoad kills a rank while concurrent demand workers hammer
// disjoint block stripes. The victim's primary bands are all replicated
// first, so the invariant under fire is total: no acknowledged write may
// be lost and no read may return wrong bytes — the only legal failure is
// the typed contained error, and only after the kill.
func (h *Harness) fleetRankKillLoad(spec FleetSpec) {
	f := h.fleet
	// Mirror as many of the victim's bands as the other ranks' pools can
	// hold; the remainder exercises the contained path under load too.
	bandsPerRank := int(f.Bands()) / f.NumRanks()
	if cap := fleetReplicaBands * (spec.Ranks - 1); bandsPerRank > cap {
		bandsPerRank = cap
	}
	h.replicateOrFail(h.victimBands(fleetKillRank, bandsPerRank))

	var killed atomic.Bool
	l := h.startLoad(h.be, func(err error) bool { return fleet.Contained(err) && killed.Load() }, &killed)
	for i := 0; i < 10; i++ {
		if err := f.Tick(); err != nil {
			h.fail("fleet", -1, fmt.Sprintf("pre-kill tick: %v", err))
		}
	}
	killed.Store(true) // before KillRank, so no contained error precedes it
	f.KillRank(fleetKillRank)
	for l.marked.Load() < 200*loadWorkers {
		if l.live.Load() == 0 { // workers only leave early on an error
			h.fail("fleet", -1, "every worker stopped before the post-kill quota")
			break
		}
		if err := f.Tick(); err != nil {
			h.fail("fleet", -1, fmt.Sprintf("post-kill tick: %v", err))
			break
		}
	}
	reads, writes := l.finish(h, "fleet")

	fr := h.rep.Fleet
	fr.WorkerOps = reads + writes
	fr.OpsAfterKill = l.marked.Load()
	if fr.OpsAfterKill == 0 {
		h.fail("fleet", -1, "no worker traffic after the rank kill")
	}
}

// fleetChipRepair proves the headline path end to end: decode-side
// telemetry steers the replication policy at the rank under error
// pressure, a chip on that rank then dies, the rank's own guard
// supervisor convicts it — and the fleet repairs the chip in place from
// the replicas, measurably faster per block than the local RS erasure
// decode used for the unreplicated bands, with no migration and no
// degraded mode.
func (h *Harness) fleetChipRepair() {
	f := h.fleet
	const hot = 6
	bb := f.BandBlocks()
	hotA := h.victimBands(0, hot)
	hotB := h.victimBands(1, hot)

	// Error pressure on rank 0 only: retention drift, then equal demand
	// heat over rank-0 and rank-1 bands. The policy must side with the
	// telemetry.
	f.Engine(0).Quiesce(func() {
		h.rep.BitsInjected += int64(f.Rank(0).InjectRetentionErrors(1e-4))
	})
	buf := make([]byte, h.blockBytes)
	for pass := 0; pass < 4; pass++ {
		for _, band := range append(append([]int64(nil), hotA...), hotB...) {
			for i := int64(0); i < bb; i++ {
				if err := f.ReadBlockInto(band*bb+i, buf); err != nil {
					h.fail("due", band*bb+i, err.Error())
				}
				h.rep.Reads++
			}
		}
	}
	for i := 0; i < 3; i++ { // 2 mirrors per tick -> all 6 hot rank-0 bands
		if err := f.Tick(); err != nil {
			h.fail("fleet", -1, fmt.Sprintf("policy tick: %v", err))
		}
	}
	for _, band := range hotA {
		if !f.BandReplicated(band * bb) {
			h.fail("fleet", band*bb, fmt.Sprintf("pressured hot band %d not replicated", band))
		}
	}
	for _, band := range hotB {
		if f.BandReplicated(band * bb) {
			h.fail("fleet", band*bb, fmt.Sprintf("quiet-rank band %d replicated ahead of pressured ones", band))
		}
	}

	f.Engine(0).Quiesce(func() { f.Rank(0).FailChip(fleetKillChip) })
	h.rep.ChipKills++
	sup := f.Supervisor(0)
	for i := 0; i < 600 && sup.Report().ExternalRepairs == 0; i++ {
		for j := 0; j < 8; j++ {
			h.randomOp()
		}
		if err := f.Tick(); err != nil {
			h.fail("fleet", -1, fmt.Sprintf("tick: %v", err))
			return
		}
	}
	rep := sup.Report()
	if rep.ExternalRepairs != 1 || rep.Verdicts != 1 {
		h.fail("fleet", -1, fmt.Sprintf("conviction did not repair externally: %+v", rep))
		return
	}
	if d, _ := f.Engine(0).Degraded(); d {
		h.fail("fleet", -1, "rank went degraded despite replica repair")
	}
	if f.Engine(0).Migrating() != nil {
		h.fail("fleet", -1, "migration started despite replica repair")
	}

	// The measured claim: byte copy from the replica beats RS erasure
	// decode per block.
	reps := f.Repairs()
	if len(reps) != 1 {
		h.fail("fleet", -1, fmt.Sprintf("%d repair reports, want 1", len(reps)))
		return
	}
	r := reps[0]
	if r.ReplicaBlocks == 0 || r.ErasureBlocks == 0 {
		h.fail("fleet", -1, fmt.Sprintf("repair did not exercise both paths: %+v", r))
		return
	}
	if r.Unrecoverable {
		h.fail("fleet", -1, "repair left unrecoverable blocks")
	}
	if rp, ep := r.ReplicaNSPerBlock(), r.ErasureNSPerBlock(); rp >= ep {
		h.fail("fleet", -1, fmt.Sprintf(
			"repair-from-replica not faster: %.0f ns/block vs %.0f ns/block erasure", rp, ep))
	}
}

// fleetDivergence corrupts replica copies behind the fleet's back (a
// consistent codeword of the wrong bytes — invisible to the replica
// rank's own RS) and requires the anti-entropy sweep to heal every one
// from the primary; the primary rank is then killed and the sweep-served
// failover bytes prove the heal was real.
func (h *Harness) fleetDivergence() {
	f := h.fleet
	bb := f.BandBlocks()
	bands := h.victimBands(fleetKillRank, fleetReplicateBands)
	h.replicateOrFail(bands)

	bogus := make([]byte, h.blockBytes)
	for i, band := range bands {
		b := band*bb + int64(i)
		rr, local, ok := f.ReplicaLocation(b)
		if !ok {
			h.fail("fleet", b, "replica vanished before corruption")
			continue
		}
		h.rng.Read(bogus)
		if err := f.Engine(rr).WriteBlockInitial(local, bogus); err != nil {
			h.fail("fleet", b, fmt.Sprintf("corrupting replica: %v", err))
		}
		h.rep.Fleet.ReplicasCorrupted++
	}

	for i := 0; i < 4 && f.Stats().DivergenceFixes < int64(len(bands)); i++ {
		if err := f.Tick(); err != nil {
			h.fail("fleet", -1, fmt.Sprintf("verify tick: %v", err))
		}
	}
	if got := f.Stats().DivergenceFixes; got != int64(len(bands)) {
		h.fail("fleet", -1, fmt.Sprintf("%d divergence repairs, want %d", got, len(bands)))
	}
	// Kill the primary: from here the sweep serves those bands from the
	// healed replicas, so any un-healed byte would surface as SDC.
	f.KillRank(fleetKillRank)
}

// fleetKillDuringRepair starts a chip repair whose replica source rank
// dies mid-quiesce (via the RepairBandHook): the bands already copied
// stay copied, the rest silently fall back to local erasure decode, and
// the repair still completes with every block intact. The dead rank's
// own unreplicated bands become contained failures in the sweep.
func (h *Harness) fleetKillDuringRepair(spec FleetSpec) {
	f := h.fleet
	// All replicas land on the rank after the primary in allocSlot
	// order; that is the rank the hook kills.
	victim := (0 + 1) % spec.Ranks
	h.replicateOrFail(h.victimBands(0, fleetReplicateBands))
	f.SetRepairBandHook(func(rk, bandsDone int) {
		if rk == 0 && bandsDone == fleetKillAfterBands {
			f.KillRank(victim)
		}
	})

	f.Engine(0).Quiesce(func() { f.Rank(0).FailChip(fleetKillChip) })
	h.rep.ChipKills++
	if err := f.RepairChip(0, fleetKillChip); err != nil {
		h.fail("fleet", -1, fmt.Sprintf("repair across replica-rank death: %v", err))
		return
	}
	reps := f.Repairs()
	if len(reps) != 1 {
		h.fail("fleet", -1, fmt.Sprintf("%d repair reports, want 1", len(reps)))
		return
	}
	r := reps[0]
	if r.ReplicaBands != fleetKillAfterBands {
		h.fail("fleet", -1, fmt.Sprintf("%d bands copied before the kill, want %d", r.ReplicaBands, fleetKillAfterBands))
	}
	if r.ErasureBands == 0 {
		h.fail("fleet", -1, "no bands fell back to erasure after the replica rank died")
	}
	if r.Unrecoverable {
		h.fail("fleet", -1, "repair left unrecoverable blocks")
	}
	if f.Rank(0).FailedChips() != 0 {
		h.fail("fleet", -1, "chip still failed after repair")
	}
}

// fleetDoubleFault kills one chip on each rank of a two-rank fleet whose
// bands are replicated both ways: each guard convicts its own chip, and
// each repair byte-copies through the *other*, equally wounded, rank's
// corrected-read path. Both ranks must come back healthy with zero DUEs.
func (h *Harness) fleetDoubleFault() {
	f := h.fleet
	bb := f.BandBlocks()
	both := append(h.victimBands(0, fleetReplicateBands/2),
		h.victimBands(1, fleetReplicateBands/2)...)
	h.replicateOrFail(both)

	f.Engine(0).Quiesce(func() { f.Rank(0).FailChip(fleetKillChip) })
	f.Engine(1).Quiesce(func() { f.Rank(1).FailChip(fleetKillChipB) })
	h.rep.ChipKills += 2

	buf := make([]byte, h.blockBytes)
	repaired := func() bool {
		return f.Supervisor(0).Report().ExternalRepairs == 1 &&
			f.Supervisor(1).Report().ExternalRepairs == 1
	}
	for i := 0; i < 800 && !repaired(); i++ {
		for _, band := range both {
			if err := f.ReadBlockInto(band*bb+int64(i%32), buf); err != nil {
				h.fail("due", band*bb, err.Error())
			}
			h.rep.Reads++
		}
		if err := f.Tick(); err != nil {
			h.fail("fleet", -1, fmt.Sprintf("tick: %v", err))
			return
		}
	}
	if !repaired() {
		h.fail("fleet", -1, fmt.Sprintf("double fault unrepaired: rank0 %+v rank1 %+v",
			f.Supervisor(0).Report(), f.Supervisor(1).Report()))
		return
	}
	for i := 0; i < 2; i++ {
		if d, _ := f.Engine(i).Degraded(); d {
			h.fail("fleet", -1, fmt.Sprintf("rank %d went degraded despite replica repair", i))
		}
		if f.Rank(i).FailedChips() != 0 {
			h.fail("fleet", -1, fmt.Sprintf("rank %d still has failed chips", i))
		}
		if f.Engine(i).Telemetry().DUEs != 0 {
			h.fail("fleet", -1, fmt.Sprintf("rank %d saw DUEs during double-fault repair", i))
		}
	}
}
