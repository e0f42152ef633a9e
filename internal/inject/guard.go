package inject

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"chipkillpm/internal/guard"
)

// Guard scenario names.
const (
	ScenarioChipKillUnderLoad   = "chip-kill-under-load"
	ScenarioCrashDuringMigration = "crash-during-migration"
	ScenarioTransientStorm      = "transient-storm"
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
	// Workers is the concurrent demand-worker count for
	// chip-kill-under-load (default 4).
	Workers int `json:"workers,omitempty"`
	// KillChip is the data chip the scenario kills (default 2).
	KillChip int `json:"kill_chip,omitempty"`
	// CrashAfterBands is how many bands crash-during-migration lets the
	// supervisor journal before tearing a journal write (default 8).
	CrashAfterBands int64 `json:"crash_after_bands,omitempty"`
	// CrashKeepBytes is the torn-record prefix that survives the power
	// loss (default 20 — a header plus a sliver of payload).
	CrashKeepBytes int `json:"crash_keep_bytes,omitempty"`
	// StormChip hosts transient-storm's dead VLEW (default 3).
	StormChip int `json:"storm_chip,omitempty"`
}

func (s *GuardSpec) withDefaults() GuardSpec {
	g := *s
	if g.Workers <= 0 {
		g.Workers = 4
	}
	if g.KillChip <= 0 {
		g.KillChip = 2
	}
	if g.CrashAfterBands <= 0 {
		g.CrashAfterBands = 8
	}
	if g.CrashKeepBytes <= 0 {
		g.CrashKeepBytes = 20
	}
	if g.StormChip <= 0 {
		g.StormChip = 3
	}
	return g
}

// runGuard executes the campaign's guard scenario. The working set is
// already committed; the final oracle sweep runs afterwards in Run.
func (h *Harness) runGuard() {
	spec := h.c.Guard.withDefaults()
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
		h.guardTransientStorm(sup, spec)
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

// guardChipKillUnderLoad kills a data chip while concurrent workers keep
// hammering disjoint block stripes, each against its own shadow copy; the
// supervisor must detect, convict, and migrate online — the workers never
// stop, and at least some of their traffic must overlap the migration
// (which is what "no global quiesce" means observably).
func (h *Harness) guardChipKillUnderLoad(sup *guard.Supervisor, spec GuardSpec) {
	e := h.eng
	seed := campaignSeed(h.c.Name, h.c.Seed)

	// Serial warmup through the oracle.
	for i := 0; i < h.c.Ops; i++ {
		h.randomOp()
	}

	e.Quiesce(func() { h.rank.FailChip(spec.KillChip) })
	h.rep.ChipKills++

	// Workers bypass the oracle until their shadows merge, so the
	// oracle-backed OMV cache must sit out the concurrent phase (see
	// omvSource).
	h.omv.disabled.Store(true)
	defer h.omv.disabled.Store(false)

	type workerState struct {
		shadow map[int64][]byte
		reads  int64
		writes int64
		overlapped int64
		err    error
	}
	var migrating atomic.Bool
	stop := make(chan struct{})
	results := make([]workerState, spec.Workers)
	var wg sync.WaitGroup
	for w := 0; w < spec.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			res.shadow = make(map[int64][]byte)
			rng := rand.New(rand.NewSource(seed + int64(w)*977 + 11))
			var owned []int64
			for i := w; i < len(h.blocks); i += spec.Workers {
				owned = append(owned, h.blocks[i])
			}
			buf := make([]byte, h.blockBytes)
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := owned[rng.Intn(len(owned))]
				over := migrating.Load()
				if rng.Intn(3) == 0 {
					data := make([]byte, h.blockBytes)
					rng.Read(data)
					if err := e.WriteBlock(b, data); err != nil {
						res.err = fmt.Errorf("write %d: %w", b, err)
						return
					}
					res.shadow[b] = data
					res.writes++
				} else {
					if err := e.ReadBlockInto(b, buf); err != nil {
						res.err = fmt.Errorf("read %d: %w", b, err)
						return
					}
					want, ok := res.shadow[b]
					if !ok {
						want, _ = h.oracle.Expected(b)
					}
					if !bytes.Equal(buf, want) {
						res.err = fmt.Errorf("block %d: wrong data under self-heal", b)
						return
					}
					res.reads++
				}
				if over {
					res.overlapped++
				}
			}
		}(w)
	}

	for i := 0; i < 4000 && sup.State() != guard.StateDegraded && sup.State() != guard.StateWounded; i++ {
		migrating.Store(sup.State() == guard.StateMigrating)
		if err := sup.Tick(); err != nil {
			h.fail("guard", -1, fmt.Sprintf("tick in state %v: %v", sup.State(), err))
			break
		}
	}
	close(stop)
	wg.Wait()

	g := h.rep.Guard
	for w := range results {
		res := &results[w]
		if res.err != nil {
			h.fail("guard", -1, fmt.Sprintf("worker %d: %v", w, res.err))
		}
		for b, data := range res.shadow {
			h.oracle.Commit(b, data)
		}
		h.rep.Reads += res.reads
		h.rep.Writes += res.writes
		g.WorkerOps += res.reads + res.writes
		g.OpsDuringMigration += res.overlapped
	}

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

	for i := 0; i < 4000 && h.stats().BandsMigrated < spec.CrashAfterBands; i++ {
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
	region.TearNextWrite(spec.CrashKeepBytes)
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
func (h *Harness) guardTransientStorm(sup *guard.Supervisor, spec GuardSpec) {
	b := h.blocks[len(h.blocks)/2]
	loc := h.rank.Locate(b)
	n := h.rank.Config().ChipAccessBytes
	h.eng.Quiesce(func() {
		chip := h.rank.Chip(spec.StormChip)
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
