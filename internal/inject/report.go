package inject

import (
	"fmt"
	"strings"
)

// Band is an inclusive [Lo, Hi] acceptance interval on a measured rate.
type Band struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Contains reports whether v falls inside the band.
func (b Band) Contains(v float64) bool { return v >= b.Lo && v <= b.Hi }

// Expect declares a campaign's pass criteria. The zero value demands the
// strictest outcome: zero SDC, zero DUE, every verification byte-exact.
type Expect struct {
	// AllowSDC inverts the SDC criterion: the campaign demonstrates a
	// documented escape (e.g. OMV corruption below the LLC's ECC) and
	// passes only if the oracle actually catches silent corruption.
	AllowSDC bool `json:"allow_sdc,omitempty"`
	// MaxDUE bounds detected-but-uncorrectable reads (0 = none allowed).
	MaxDUE int64 `json:"max_due"`
	// FallbackRate, when non-nil, bounds the measured VLEW-fallback rate
	// (fallback reads / classified reads) — the paper's ~0.018% at the
	// runtime RBER of 2e-4.
	FallbackRate *Band `json:"fallback_rate,omitempty"`
	// MinFallback requires at least this many fallback reads, so that a
	// campaign claiming to measure the fallback path cannot vacuously
	// pass with zero engagements.
	MinFallback int64 `json:"min_fallback,omitempty"`
}

// Failure records one oracle-visible failure with enough context to
// reproduce it.
type Failure struct {
	Op     int64  `json:"op"`
	Block  int64  `json:"block"`
	Kind   string `json:"kind"` // "sdc", "due", "scrub", "write", "event"
	Detail string `json:"detail"`
	Repro  string `json:"repro"`
}

// maxRecordedFailures caps the failure list per campaign; the total count
// is always exact.
const maxRecordedFailures = 20

// CampaignReport summarises one campaign run.
type CampaignReport struct {
	Name     string `json:"name"`
	Suite    string `json:"suite,omitempty"`
	Seed     int64  `json:"seed"`
	Geometry string `json:"geometry"`
	Blocks   int64  `json:"blocks"`
	// EngineShards is nonzero when demand ops ran through the sharded
	// engine rather than a bare controller.
	EngineShards int `json:"engine_shards,omitempty"`

	Ops    int64 `json:"ops"`
	Reads  int64 `json:"reads"` // classified reads (workload + sweeps)
	Writes int64 `json:"writes"`

	Clean       int64 `json:"clean"`
	CorrectedRS int64 `json:"corrected_rs"`
	Fallback    int64 `json:"fallback"` // reads that took the VLEW-fallback path
	DUE         int64 `json:"due"`
	SDC         int64 `json:"sdc"`

	FallbackRate float64 `json:"fallback_rate"`

	BitsInjected   int64 `json:"bits_injected"`
	FlipsInjected  int64 `json:"flips_injected"`
	ChipKills      int   `json:"chip_kills"`
	Crashes        int   `json:"crashes"`
	Scrubs         int   `json:"scrubs"`
	ScrubBitsFixed int64 `json:"scrub_bits_fixed"`
	DeltaCorrupts  int   `json:"delta_corrupts"`
	OMVCorrupts    int   `json:"omv_corrupts"`

	// Guard summarises the supervisor run for guard campaigns.
	Guard *GuardReport `json:"guard,omitempty"`

	// Fleet summarises the multi-rank run for fleet campaigns.
	Fleet *FleetReport `json:"fleet,omitempty"`

	Expect        Expect    `json:"expect"`
	Failures      []Failure `json:"failures,omitempty"`
	FailuresTotal int       `json:"failures_total"`
	Pass          bool      `json:"pass"`
	Reason        string    `json:"reason,omitempty"`
	Repro         string    `json:"repro"`
	ElapsedMS     int64     `json:"elapsed_ms"`
}

// finish computes derived rates and evaluates the expectations.
func (r *CampaignReport) finish() {
	if r.Reads > 0 {
		r.FallbackRate = float64(r.Fallback) / float64(r.Reads)
	}
	var reasons []string
	if r.Expect.AllowSDC {
		if r.SDC == 0 {
			reasons = append(reasons, "expected the oracle to catch SDC, saw none")
		}
	} else if r.SDC > 0 {
		reasons = append(reasons, fmt.Sprintf("%d silent data corruptions", r.SDC))
	}
	if r.DUE > r.Expect.MaxDUE {
		reasons = append(reasons, fmt.Sprintf("%d DUEs exceed budget %d", r.DUE, r.Expect.MaxDUE))
	}
	if b := r.Expect.FallbackRate; b != nil && !b.Contains(r.FallbackRate) {
		reasons = append(reasons, fmt.Sprintf("fallback rate %.4g%% outside [%.4g%%, %.4g%%]",
			r.FallbackRate*100, b.Lo*100, b.Hi*100))
	}
	if r.Fallback < r.Expect.MinFallback {
		reasons = append(reasons, fmt.Sprintf("only %d fallback reads, want >= %d", r.Fallback, r.Expect.MinFallback))
	}
	// Failures other than the SDC/DUE counters (scrub, write, event
	// errors) always fail the campaign.
	extra := 0
	for _, f := range r.Failures {
		if f.Kind != "sdc" && f.Kind != "due" {
			extra++
		}
	}
	if extra > 0 {
		reasons = append(reasons, fmt.Sprintf("%d campaign-level failures", extra))
	}
	r.Pass = len(reasons) == 0
	r.Reason = strings.Join(reasons, "; ")
}

// GuardReport summarises a health-supervisor scenario: what the
// supervisor concluded and how much traffic overlapped its repair.
type GuardReport struct {
	Scenario           string `json:"scenario"`
	State              string `json:"state"` // final supervisor state
	SuspicionsRaised   int64  `json:"suspicions_raised"`
	SuspicionsCleared  int64  `json:"suspicions_cleared"`
	Verdicts           int64  `json:"verdicts"`
	BandsMigrated      int64  `json:"bands_migrated"`
	OpsDuringMigration int64  `json:"ops_during_migration"`
	WorkerOps          int64  `json:"worker_ops,omitempty"`
	MigrationResumed   bool   `json:"migration_resumed,omitempty"`
}

// FleetReport summarises a multi-rank fleet scenario: the replication
// tier's outcome counters, the containment split after rank-scale
// faults, and the measured per-block cost of both chip-repair paths.
type FleetReport struct {
	Scenario   string `json:"scenario"`
	Ranks      int    `json:"ranks"`
	RanksAlive int    `json:"ranks_alive"`

	ActiveReplicas  int   `json:"active_replicas"`
	BandsReplicated int64 `json:"bands_replicated"`
	FailoverReads   int64 `json:"failover_reads"`
	FailoverWrites  int64 `json:"failover_writes"`
	ReadRepairs     int64 `json:"read_repairs"`
	DivergenceFixes int64 `json:"divergence_fixes"`
	ContainedDUEs   int64 `json:"contained_dues"`
	RejectedWrites  int64 `json:"rejected_writes"`
	RankKills       int64 `json:"rank_kills"`
	ChipRepairs     int64 `json:"chip_repairs"`

	// Verdicts and ExternalRepairs are summed over the ranks' guards.
	Verdicts        int64 `json:"verdicts"`
	ExternalRepairs int64 `json:"external_repairs"`

	// SweptContained counts final-sweep reads of unservable blocks that
	// correctly returned the typed contained failure (never counted as
	// campaign DUEs: the fleet reported them by construction).
	SweptContained int64 `json:"swept_contained"`

	// Scenario-specific counters.
	AckedAfterKill    int64 `json:"acked_after_kill,omitempty"`
	ReplicasCorrupted int64 `json:"replicas_corrupted,omitempty"`
	WorkerOps         int64 `json:"worker_ops,omitempty"`
	OpsAfterKill      int64 `json:"ops_after_kill,omitempty"`

	// Measured chip-repair cost per block, by path; the speedup is
	// erasure/replica (>1 means the replica byte copy won).
	RepairReplicaNSPerBlock float64 `json:"repair_replica_ns_per_block,omitempty"`
	RepairErasureNSPerBlock float64 `json:"repair_erasure_ns_per_block,omitempty"`
	RepairSpeedup           float64 `json:"repair_speedup,omitempty"`
}

// Summary renders the one-line human summary used by the CLI and tests.
func (r *CampaignReport) Summary() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	guard := ""
	if g := r.Guard; g != nil {
		guard = fmt.Sprintf(" guard[%s: %s bands=%d overlap=%d]",
			g.Scenario, g.State, g.BandsMigrated, g.OpsDuringMigration)
	}
	if f := r.Fleet; f != nil {
		guard = fmt.Sprintf(" fleet[%s: ranks=%d/%d replicas=%d failover=%d/%d contained=%d",
			f.Scenario, f.RanksAlive, f.Ranks, f.ActiveReplicas,
			f.FailoverReads, f.FailoverWrites, f.ContainedDUEs)
		if f.RepairSpeedup > 0 {
			guard += fmt.Sprintf(" repair=%.0f/%.0fns/blk (%.2gx)",
				f.RepairReplicaNSPerBlock, f.RepairErasureNSPerBlock, f.RepairSpeedup)
		}
		guard += "]"
	}
	return fmt.Sprintf("%-22s reads=%-7d writes=%-6d corrected=%-5d fallback=%d (%.4f%%) due=%d sdc=%d%s %s",
		r.Name, r.Reads, r.Writes, r.CorrectedRS, r.Fallback, r.FallbackRate*100, r.DUE, r.SDC, guard, verdict)
}

// Report aggregates a suite run.
type Report struct {
	Suite     string            `json:"suite"`
	Seed      int64             `json:"seed"`
	Campaigns []*CampaignReport `json:"campaigns"`
	TotalSDC  int64             `json:"total_sdc"`
	TotalDUE  int64             `json:"total_due"`
	Pass      bool              `json:"pass"`
}

// RunSuite runs every campaign of a named suite with the given base seed.
func RunSuite(suite string, seed int64) (*Report, error) {
	campaigns, err := Suite(suite, seed)
	if err != nil {
		return nil, err
	}
	return RunCampaigns(suite, seed, campaigns), nil
}

// RunCampaigns runs a campaign list under a suite label.
func RunCampaigns(suite string, seed int64, campaigns []Campaign) *Report {
	rep := &Report{Suite: suite, Seed: seed, Pass: true}
	for _, c := range campaigns {
		cr := RunCampaign(suite, c)
		rep.Campaigns = append(rep.Campaigns, cr)
		rep.TotalSDC += cr.SDC
		rep.TotalDUE += cr.DUE
		if !cr.Pass {
			rep.Pass = false
		}
	}
	return rep
}
