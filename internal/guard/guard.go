package guard

import (
	"fmt"
	"math/rand"

	"chipkillpm/internal/core"
	"chipkillpm/internal/engine"
)

// State is the supervisor's position in the detect → contain → repair
// loop: healthy → suspected → migrating → degraded (DESIGN.md §10).
type State int

const (
	// StateHealthy: telemetry watched, patrol scrub running, no suspect.
	StateHealthy State = iota
	// StateSuspected: a chip's error rate crossed the threshold; bounded
	// retry-with-backoff probing is discriminating transient from
	// permanent before any irreversible action.
	StateSuspected
	// StateMigrating: chip-kill verdict delivered; the online migration
	// cursor is walking the rank under demand traffic.
	StateMigrating
	// StateDegraded: migration complete; the rank serves from the striped
	// layout and patrol walks striped groups.
	StateDegraded
	// StateWounded: a convicted chip the scheme cannot migrate around
	// (the parity chip, or a second failure): keep serving, flag for
	// repair at next boot scrub.
	StateWounded
)

// String renders the state.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspected:
		return "suspected"
	case StateMigrating:
		return "migrating"
	case StateDegraded:
		return "degraded"
	case StateWounded:
		return "wounded"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// The supervisor's policy: HARP-style online suspicion and bounded
// retry-with-backoff probing (DESIGN.md §10).
const (
	// suspectThreshold is the decayed per-chip VLEW-failure rate that
	// raises suspicion: a single failed VLEW decode is worth probing —
	// probes are cheap and reversible.
	suspectThreshold = 1.0
	// decay is the per-tick multiplier of the per-chip rate windows
	// (exponential decay, so old noise fades).
	decay = 0.5
	// probeVLEWs is how many randomly placed VLEWs of the suspect chip
	// one probe round decodes.
	probeVLEWs = 8
	// probeRounds is how many consecutive failing rounds convict the
	// chip.
	probeRounds = 3
	// backoffTicks is the wait before the first retry round; it doubles
	// after every failing round (bounded retry-with-backoff, so a
	// transient storm gets time to pass before the verdict).
	backoffTicks = 1
	// suspectClearRounds is how many consecutive passing rounds return
	// the chip to good standing.
	suspectClearRounds = 2
	// patrolUnits is the patrol-scrub increment driven per tick between
	// demand batches.
	patrolUnits = 64
	// bandsPerTick bounds how many bands one migrating tick rewrites, so
	// migration shares the rank with demand traffic instead of hogging
	// it.
	bandsPerTick = 4
)

// Config configures the supervisor.
type Config struct {
	// Seed feeds probe placement.
	Seed int64
	// Repair, when non-nil, is consulted on a chip-kill verdict before
	// any local containment: a fleet-level supervisor can repair the
	// convicted chip in place (e.g. a byte copy from a replica rank).
	// Returning nil means the chip is healthy again and the supervisor
	// goes back to watching; any error falls through to the local
	// degraded-mode migration path. The hook runs on the supervisor's
	// tick goroutine and may quiesce the engine.
	Repair func(chip int) error
}

// Report is a snapshot of the supervisor's findings for harnesses and
// campaign gates.
type Report struct {
	State             State
	SuspectChip       int // -1 when none
	SuspicionsRaised  int64
	SuspicionsCleared int64
	Verdicts          int64
	// ExternalRepairs counts verdicts satisfied by the Config.Repair hook
	// (the chip was rebuilt in place, no migration needed).
	ExternalRepairs  int64
	MigrationResumed bool // this supervisor resumed a journaled migration at boot
	PatrolPos        int64
}

// Supervisor drives the health loop over one engine. It is single-owner:
// exactly one goroutine calls Tick (the engine underneath stays fully
// concurrent for demand traffic).
type Supervisor struct {
	eng *engine.Engine
	jrn *Journal
	cfg Config
	rng *rand.Rand

	state   State
	suspect int
	rates   []float64 // per-chip decayed VLEW-failure rates
	prevTel core.Telemetry

	failRounds, passRounds int
	backoff, wait          int

	mig       *core.MigrationState
	patrolPos int64

	resumed                           bool
	raised, cleared, verdicts, extRep int64
}

// New builds a supervisor over the engine with its journal in region,
// performing crash recovery first: a journal that records a completed
// migration begins one with its cursor at the end, which leaves the
// engine in the striped layout; one that records an in-flight migration
// resumes it (redoing the possibly-torn last band from its write-ahead
// image) before any demand traffic should start.
//
//chipkill:rankwide
func New(eng *engine.Engine, region *Region, cfg Config) (*Supervisor, error) {
	jrn, rec, err := Open(region)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		eng:       eng,
		jrn:       jrn,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5eed6a2d)),
		state:     StateHealthy,
		suspect:   -1,
		rates:     make([]float64, eng.Rank().NumChips()),
		patrolPos: rec.PatrolPos,
	}
	switch {
	case rec.Done:
		// The striped layout is already on the chips: a migration begun
		// with its cursor at the end has nothing left to move.
		if _, err := eng.BeginMigration(rec.Chip, eng.Blocks()); err != nil {
			return nil, fmt.Errorf("guard: adopting journaled degraded layout: %w", err)
		}
		s.state = StateDegraded
		s.resumed = true
	case rec.Active:
		cursor := int64(0)
		if rec.LastBand >= 0 {
			cursor = rec.LastBand * eng.BandBlocks()
		}
		m, err := eng.BeginMigration(rec.Chip, cursor)
		if err != nil {
			return nil, fmt.Errorf("guard: resuming journaled migration: %w", err)
		}
		if rec.LastBand >= 0 {
			// The journaled band's rewrite may have torn mid-crash; redo
			// it from the write-ahead image (idempotent).
			if err := eng.RedoBand(m, rec.BandWAL); err != nil {
				return nil, fmt.Errorf("guard: redoing journaled band %d: %w", rec.LastBand, err)
			}
		}
		s.mig = m
		s.state = StateMigrating
		s.resumed = true
	}
	s.prevTel = eng.Telemetry()
	return s, nil
}

// RegionSizeFor returns a journal-region size sufficient for one full
// migration of the engine's rank plus patrol slots and slack.
func RegionSizeFor(eng *engine.Engine) int {
	bands := eng.Blocks() / eng.BandBlocks()
	wal := eng.BandBlocks() * int64(eng.Rank().Config().ChipAccessBytes)
	perBand := int64(recHeaderSize+4+recTrailerSize) + wal
	return int(int64(logStart) +
		int64(recHeaderSize+1+recTrailerSize) + // start
		bands*perBand +
		int64(recHeaderSize+recTrailerSize) + // done
		256)
}

// State returns the supervisor's current state.
func (s *Supervisor) State() State { return s.state }

// Report snapshots the supervisor's findings.
func (s *Supervisor) Report() Report {
	return Report{
		State:             s.state,
		SuspectChip:       s.suspect,
		SuspicionsRaised:  s.raised,
		SuspicionsCleared: s.cleared,
		Verdicts:          s.verdicts,
		ExternalRepairs:   s.extRep,
		MigrationResumed:  s.resumed,
		PatrolPos:         s.patrolPos,
	}
}

// Tick runs one supervisor step: patrol, observe, probe, or migrate,
// depending on state. Called between demand batches by whoever owns the
// scheduling loop (cmd/guardsim, the fault campaigns, a service's
// background goroutine).
func (s *Supervisor) Tick() error {
	switch s.state {
	case StateHealthy, StateSuspected:
		s.patrol()
		s.observe()
		if s.state == StateHealthy {
			if ci := s.worstChip(); ci >= 0 {
				s.suspect = ci
				s.state = StateSuspected
				s.raised++
				s.failRounds, s.passRounds = 0, 0
				s.backoff = backoffTicks
				s.wait = 0
			}
		}
		if s.state == StateSuspected {
			return s.probeTick()
		}
	case StateMigrating:
		return s.migrateTick()
	case StateDegraded, StateWounded:
		s.patrol()
	}
	return nil
}

// Run ticks the supervisor n times, stopping early on error.
func (s *Supervisor) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// patrol drives the next patrol-scrub increment and journals the
// position. The supervisor is the single maintenance writer, so the
// patrol cursor advances under its loop alone.
//
//chipkill:rankwide
func (s *Supervisor) patrol() {
	s.patrolPos, _ = s.eng.PatrolScrub(s.patrolPos, patrolUnits)
	s.jrn.SavePatrol(s.patrolPos)
}

// observe folds the telemetry delta since the last tick into the decayed
// per-chip rate windows.
func (s *Supervisor) observe() {
	tel := s.eng.Telemetry()
	d := tel.Delta(s.prevTel)
	s.prevTel = tel
	for i := range s.rates {
		s.rates[i] = s.rates[i]*decay + float64(d.Chips[i].VLEWFailures)
	}
}

// worstChip returns the chip whose rate window tops the suspicion
// threshold, or -1.
func (s *Supervisor) worstChip() int {
	best, bestRate := -1, suspectThreshold
	for i, r := range s.rates {
		if r >= bestRate {
			best, bestRate = i, r
		}
	}
	return best
}

// probeTick runs one step of the bounded retry-with-backoff
// discriminator: decode probeVLEWs randomly placed VLEWs of the suspect
// chip; a round fails when more than half fail (a dead chip fails
// essentially all probes; a transient storm's isolated broken words fail
// at most a few). Consecutive failing rounds — each preceded by a
// doubling backoff so transients get time to pass or be scrubbed —
// convict; consecutive passing rounds acquit.
func (s *Supervisor) probeTick() error {
	if s.wait > 0 {
		s.wait--
		return nil
	}
	g := s.eng.Rank().Config().Geometry
	fails := 0
	for i := 0; i < probeVLEWs; i++ {
		bank := s.rng.Intn(g.Banks)
		row := s.rng.Intn(g.RowsPerBank)
		v := s.rng.Intn(g.VLEWsPerRow())
		if !s.eng.ProbeVLEW(s.suspect, bank, row, v) {
			fails++
		}
	}
	if fails*2 > probeVLEWs {
		s.failRounds++
		s.passRounds = 0
		if s.failRounds >= probeRounds {
			return s.convict()
		}
		s.wait = s.backoff
		s.backoff *= 2
		return nil
	}
	s.passRounds++
	s.failRounds = 0
	s.wait = backoffTicks
	if s.passRounds >= suspectClearRounds {
		s.rates[s.suspect] = 0
		s.suspect = -1
		s.state = StateHealthy
		s.cleared++
	}
	return nil
}

// convict delivers the chip-kill verdict: consult the external Repair
// hook first (a fleet can rebuild the chip from a replica rank without
// touching the layout), then fall back to journaling the migration start
// and beginning the online walk. A chip the scheme cannot migrate around
// (the parity chip) parks the supervisor in StateWounded instead.
//
//chipkill:rankwide
func (s *Supervisor) convict() error {
	s.verdicts++
	ci := s.suspect
	if s.cfg.Repair != nil {
		if err := s.cfg.Repair(ci); err == nil {
			// Repaired in place: discard the chip's suspicion window (its
			// failure telemetry described the dead device, not the rebuilt
			// one) and resume watching. The pre-repair telemetry was
			// already folded into rates, so resetting here is enough.
			s.extRep++
			s.rates[ci] = 0
			s.suspect = -1
			s.state = StateHealthy
			s.failRounds, s.passRounds = 0, 0
			return nil
		}
		// External repair unavailable (no replica, rank down): contain
		// locally below, exactly as a single-rank supervisor would.
	}
	if ci == s.eng.Rank().ParityChipIndex() {
		s.state = StateWounded
		return nil
	}
	if err := s.jrn.AppendStart(ci); err != nil {
		return fmt.Errorf("guard: journaling migration start: %w", err)
	}
	m, err := s.eng.BeginMigration(ci, 0)
	if err != nil {
		s.state = StateWounded
		return fmt.Errorf("guard: starting migration of chip %d: %w", ci, err)
	}
	s.mig = m
	s.state = StateMigrating
	return nil
}

// migrateTick rewrites up to bandsPerTick bands, journaling each band's
// write-ahead image before touching the rank, and journals the migration
// done once the cursor reaches the end (the rank is degraded from the
// last band on).
//
//chipkill:rankwide
func (s *Supervisor) migrateTick() error {
	bb := s.eng.BandBlocks()
	for i := 0; i < bandsPerTick && s.mig.Cursor() < s.eng.Blocks(); i++ {
		band := s.mig.Cursor() / bb
		err := s.eng.MigrateBand(s.mig, func(slices []byte) error {
			return s.jrn.AppendBand(band, slices)
		})
		if err != nil {
			return fmt.Errorf("guard: migrating band %d: %w", band, err)
		}
	}
	if s.mig.Cursor() >= s.eng.Blocks() {
		if err := s.jrn.AppendDone(); err != nil {
			return fmt.Errorf("guard: journaling migration done: %w", err)
		}
		s.mig = nil
		s.state = StateDegraded
		s.patrolPos = 0 // patrol space changed to striped groups
	}
	return nil
}
