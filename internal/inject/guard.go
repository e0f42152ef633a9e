package inject

import (
	"fmt"
	"sync/atomic"
	"time"

	"chipkillpm/internal/guard"
)

// Guard scenario names.
const (
	ScenarioChipKillUnderLoad    = "chip-kill-under-load"
	ScenarioCrashDuringMigration = "crash-during-migration"
	ScenarioTransientStorm       = "transient-storm"
)

// GuardSpec declares a health-supervisor scenario. Unlike scripted
// campaigns, a guard campaign runs the internal/guard supervisor in the
// loop: the harness injects the fault and then only drives traffic and
// ticks — detection, discrimination, migration, and recovery are the
// supervisor's job, and the campaign verifies its conclusions plus the
// usual zero-SDC/zero-lost-write oracle sweep.
//
// The chip-kill-under-load scenario runs concurrent workers, so its
// operation counts are scheduling-dependent; its pass criteria are
// invariant properties (states reached, bands migrated, zero SDC/DUE),
// never exact counts.
type GuardSpec struct {
	Scenario string `json:"scenario"`
	// KillChip is the data chip the chip-kill and crash scenarios kill;
	// 0 is data chip 0. NewHarness rejects a chip that is not a data
	// chip. The transient-storm scenario ignores it.
	KillChip int `json:"kill_chip,omitempty"`
}

// The guard scenarios' fixed shapes.
const (
	// crashAfterBands is how many bands crash-during-migration lets the
	// supervisor journal before tearing a journal write.
	crashAfterBands = 8
	// crashKeepBytes is the torn-record prefix that survives the power
	// loss: a header plus a sliver of payload.
	crashKeepBytes = 20
	// stormChip hosts transient-storm's dead VLEW.
	stormChip = 3
)

// killsChip reports whether the spec's scenario kills KillChip.
func (s *GuardSpec) killsChip() bool {
	return s.Scenario == ScenarioChipKillUnderLoad || s.Scenario == ScenarioCrashDuringMigration
}

// runGuard executes the campaign's guard scenario. Every block is
// already committed; the final oracle sweep runs afterwards in Run.
func (h *Harness) runGuard() {
	spec := *h.c.Guard
	g := &GuardReport{Scenario: spec.Scenario}
	h.rep.Guard = g

	region := guard.NewRegion(guard.RegionSizeFor(h.eng))
	cfg := guard.Config{Seed: campaignSeed(h.c.Name, h.c.Seed) + 3}
	sup, err := guard.New(h.eng, region, cfg)
	if err != nil {
		h.fail("guard", -1, fmt.Sprintf("building supervisor: %v", err))
		return
	}

	switch spec.Scenario {
	case ScenarioChipKillUnderLoad:
		h.guardChipKillUnderLoad(sup, spec)
	case ScenarioCrashDuringMigration:
		sup = h.guardCrashDuringMigration(sup, region, spec, cfg)
	case ScenarioTransientStorm:
		h.guardTransientStorm(sup)
	default:
		h.fail("guard", -1, fmt.Sprintf("unknown guard scenario %q", spec.Scenario))
		return
	}
	if sup != nil {
		r := sup.Report()
		g.State = r.State.String()
		g.SuspicionsRaised = r.SuspicionsRaised
		g.SuspicionsCleared = r.SuspicionsCleared
		g.Verdicts = r.Verdicts
		g.MigrationResumed = g.MigrationResumed || r.MigrationResumed
	}
	g.BandsMigrated = h.stats().BandsMigrated
}

// overlapWait bounds how long the chip-kill-under-load tick loop holds
// its first migrating tick for a worker op to overlap the migration.
// Workers run freely between ticks, so only a rank that stays quiesced
// (the global stall the campaign exists to catch) outlasts it.
const overlapWait = 5 * time.Second

// guardChipKillUnderLoad kills a data chip while concurrent workers keep
// hammering disjoint block stripes, each against its own shadow copy; the
// supervisor must detect, convict, and migrate online — the workers never
// stop, and at least some of their traffic must overlap the migration
// (which is what "no global quiesce" means observably).
//
// A migration is a few milliseconds of ticks, so the harness makes the
// overlap a matter of the engine, not of the scheduler: every worker
// completes an op before the chip dies, and no migrating tick runs (so
// neither does the one that migrates the last band) until some op has
// completed with the migration in progress, or overlapWait has passed.
func (h *Harness) guardChipKillUnderLoad(sup *guard.Supervisor, spec GuardSpec) {
	// Serial warmup through the oracle.
	for i := 0; i < h.c.Ops; i++ {
		h.randomOp()
	}

	// Workers bypass the oracle until their shadows merge, so the
	// oracle-backed OMV cache must sit out the concurrent phase (see
	// omvSource).
	h.omv.disabled.Store(true)
	defer h.omv.disabled.Store(false)

	var migrating atomic.Bool
	l := h.startLoad(h.eng, nil, &migrating)
	// Every worker's first completed op releases the chip kill.
	l.started.Wait()
	h.eng.Quiesce(func() { h.rank.FailChip(spec.KillChip) })
	h.rep.ChipKills++

	held := false
	for i := 0; i < 4000 && sup.State() != guard.StateDegraded && sup.State() != guard.StateWounded; i++ {
		m := sup.State() == guard.StateMigrating
		migrating.Store(m)
		if m && !held {
			held = true
			for deadline := time.Now().Add(overlapWait); l.marked.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(50 * time.Microsecond)
			}
		}
		if err := sup.Tick(); err != nil {
			h.fail("guard", -1, fmt.Sprintf("tick in state %v: %v", sup.State(), err))
			break
		}
	}
	reads, writes := l.finish(h, "guard")

	g := h.rep.Guard
	h.rep.Reads += reads
	h.rep.Writes += writes
	g.WorkerOps += reads + writes
	g.OpsDuringMigration += l.marked.Load()

	if st := sup.State(); st != guard.StateDegraded {
		h.fail("guard", -1, fmt.Sprintf("supervisor finished in %v, want degraded", st))
	}
	if r := sup.Report(); r.Verdicts != 1 {
		h.fail("guard", -1, fmt.Sprintf("%d verdicts, want exactly 1", r.Verdicts))
	}
	if g.OpsDuringMigration == 0 {
		h.fail("guard", -1, "no worker traffic overlapped the migration (global quiesce?)")
	}
	if want := h.rank.Blocks() / h.eng.BandBlocks(); h.stats().BandsMigrated != want {
		h.fail("guard", -1, fmt.Sprintf("%d bands migrated, want %d", h.stats().BandsMigrated, want))
	}
	if d, chip := h.eng.Degraded(); !d || chip != spec.KillChip {
		h.fail("guard", -1, fmt.Sprintf("engine Degraded() = %v, %d after migration", d, chip))
	}
}

// guardCrashDuringMigration lets the supervisor migrate partway, tears a
// journal write mid-store (power loss), reboots onto a fresh engine and
// supervisor over the surviving bytes, and requires recovery to resume
// and complete the migration. Serial traffic through the oracle runs
// before the crash and after recovery; the reboot sequence (CloseAllRows
// onward) runs with the worker pool already drained.
//
//chipkill:rankwide
func (h *Harness) guardCrashDuringMigration(sup *guard.Supervisor, region *guard.Region, spec GuardSpec, cfg guard.Config) *guard.Supervisor {
	g := h.rep.Guard
	h.eng.Quiesce(func() { h.rank.FailChip(spec.KillChip) })
	h.rep.ChipKills++

	for i := 0; i < 4000 && h.stats().BandsMigrated < crashAfterBands; i++ {
		for j := 0; j < 4; j++ {
			h.randomOp()
		}
		if sup.State() == guard.StateMigrating {
			g.OpsDuringMigration += 4
		}
		if err := sup.Tick(); err != nil {
			h.fail("guard", -1, fmt.Sprintf("pre-crash tick: %v", err))
			return sup
		}
	}
	if sup.State() != guard.StateMigrating {
		h.fail("guard", -1, fmt.Sprintf("supervisor in %v before crash, want migrating", sup.State()))
		return sup
	}

	preCrash := h.stats().BandsMigrated
	region.TearNextWrite(crashKeepBytes)
	if err := sup.Tick(); err == nil {
		h.fail("guard", -1, "tick across the torn journal write reported success")
		return sup
	}
	if !region.Crashed() {
		h.fail("guard", -1, "tear never fired")
		return sup
	}
	if got := h.stats().BandsMigrated; got != preCrash {
		h.fail("guard", -1, fmt.Sprintf("rank ran ahead of the journal: %d bands vs %d", got, preCrash))
	}

	// Reboot: volatile chip state drains, a fresh engine comes up, and
	// the supervisor's recovery runs before any traffic or boot scrub.
	h.rank.CloseAllRows()
	region.Reboot()
	if err := h.rebuild(); err != nil {
		h.fail("guard", -1, fmt.Sprintf("reboot: %v", err))
		return nil
	}
	h.rep.Crashes++
	sup2, err := guard.New(h.eng, region, cfg)
	if err != nil {
		h.fail("guard", -1, fmt.Sprintf("recovery: %v", err))
		return nil
	}
	rep := sup2.Report()
	if !rep.MigrationResumed || rep.State != guard.StateMigrating {
		h.fail("guard", -1, fmt.Sprintf("recovery did not resume the migration: %+v", rep))
		return sup2
	}
	g.MigrationResumed = true

	for i := 0; i < 4000 && sup2.State() != guard.StateDegraded; i++ {
		for j := 0; j < 2; j++ {
			h.randomOp()
		}
		g.OpsDuringMigration += 2
		if err := sup2.Tick(); err != nil {
			h.fail("guard", -1, fmt.Sprintf("post-recovery tick: %v", err))
			return sup2
		}
	}
	if sup2.State() != guard.StateDegraded {
		h.fail("guard", -1, fmt.Sprintf("resumed migration never finished: %v", sup2.State()))
	}
	if d, chip := h.eng.Degraded(); !d || chip != spec.KillChip {
		h.fail("guard", -1, fmt.Sprintf("post-recovery Degraded() = %v, %d", d, chip))
	}
	return sup2
}

// guardTransientStorm plants a dead VLEW — 24 bit flips in one block's
// chip slice, past both the RS threshold and the BCH budget, so every
// read of that block takes the erasure-repair path and logs a VLEW
// failure — on an otherwise healthy chip. The supervisor must raise
// suspicion, probe, and acquit: zero verdicts, zero migrations, zero
// spurious degraded transitions, zero DUEs.
func (h *Harness) guardTransientStorm(sup *guard.Supervisor) {
	b := h.blocks[len(h.blocks)/2]
	loc := h.rank.Locate(b)
	n := h.rank.Config().ChipAccessBytes
	h.eng.Quiesce(func() {
		chip := h.rank.Chip(stormChip)
		for k := 0; k < n; k++ {
			for _, bit := range []uint{0, 3, 6} {
				chip.FlipDataBit(loc.Bank, loc.Row, loc.Col+k, bit)
			}
		}
	})
	h.rep.FlipsInjected += int64(3 * n)

	// The storm: a burst of reads of the broken word (each classified).
	for i := 0; i < 3; i++ {
		h.readAndCheck(b)
	}

	for i := 0; i < 80 && sup.Report().SuspicionsCleared == 0; i++ {
		if st := sup.State(); st == guard.StateMigrating || st == guard.StateDegraded {
			h.fail("guard", -1, fmt.Sprintf("spurious %v on a transient storm", st))
			return
		}
		if err := sup.Tick(); err != nil {
			h.fail("guard", -1, fmt.Sprintf("tick: %v", err))
			return
		}
	}
	rep := sup.Report()
	if rep.SuspicionsRaised == 0 {
		h.fail("guard", -1, "storm never raised suspicion — scenario lost its signal")
	}
	if rep.SuspicionsCleared == 0 || rep.State != guard.StateHealthy {
		h.fail("guard", -1, fmt.Sprintf("storm not cleared: %+v", rep))
	}
	if rep.Verdicts != 0 {
		h.fail("guard", -1, fmt.Sprintf("%d spurious chip-kill verdicts on a transient storm", rep.Verdicts))
	}
	if h.eng.Migrating() != nil {
		h.fail("guard", -1, "spurious migration started")
	}
	if d, _ := h.eng.Degraded(); d {
		h.fail("guard", -1, "spurious degraded mode")
	}
	if tel := h.eng.Telemetry(); tel.DUEs != 0 {
		h.fail("guard", -1, fmt.Sprintf("%d DUEs during transient storm", tel.DUEs))
	}
}
