package inject

import "fmt"

// paperFallbackBand bounds the measured VLEW-fallback rate at the runtime
// RBER of 2e-4 to within 2x of the paper's ~0.018% (Sec V-C): with one
// byte per RS symbol, P[>2 bad symbols in a 72-symbol block] ~= 2.3e-4.
var paperFallbackBand = Band{Lo: 0.9e-4, Hi: 3.6e-4}

// SuiteNames lists the named suites in presentation order.
func SuiteNames() []string {
	return []string{"smoke", "standard", "guard", "fleet", "soak", "escape"}
}

// SuiteDescription returns the one-line summary -list prints for a suite.
func SuiteDescription(name string) string {
	switch name {
	case "smoke":
		return "seconds-scale gate: one campaign per headline mechanism"
	case "standard":
		return "acceptance gate: every claimed fault class at runtime RBERs"
	case "guard":
		return "self-healing runtime: supervisor detect/convict/migrate in the loop"
	case "fleet":
		return "multi-rank fleet: replication, rank kills, repair-from-replica"
	case "soak":
		return "deep campaigns kept out of the default run (full kill matrix)"
	case "escape":
		return "documented trust boundary: the one fault the scheme cannot see"
	default:
		return ""
	}
}

// Suite returns the campaign list for a named suite, parameterised by the
// base seed (each campaign further mixes in its own name).
func Suite(name string, seed int64) ([]Campaign, error) {
	switch name {
	case "smoke":
		return smokeSuite(seed), nil
	case "standard":
		return standardSuite(seed), nil
	case "guard":
		return guardSuite(seed), nil
	case "fleet":
		return fleetSuite(seed), nil
	case "soak":
		return soakSuite(seed), nil
	case "escape":
		return escapeSuite(seed), nil
	default:
		return nil, fmt.Errorf("inject: unknown suite %q (have %v)", name, SuiteNames())
	}
}

// smokeSuite is the seconds-scale gate run under `go test ./...`, `make
// check`, and CI: one campaign per headline mechanism.
func smokeSuite(seed int64) []Campaign {
	return []Campaign{
		{
			Name:        "smoke-drift",
			Description: "runtime drift at the top RBER: byte-exact reads, zero DUEs",
			Seed:        seed,
			Ops:         2000, WriteFrac: 0.3, OMVHitRate: 0.7,
			Events: []Event{
				{AtOp: 0, Kind: EvDrift, RBER: 2e-4},
			},
		},
		{
			Name:        "smoke-chipkill",
			Description: "whole-chip kill mid-run: RS erasure reads, no lost writes",
			Seed:        seed,
			Banks:       1, RowsPerBank: 4, RowBytes: 1024,
			Ops: 1000, WriteFrac: 0.3, OMVHitRate: 0.7,
			Events: []Event{
				{AtOp: 300, Kind: EvDrift, RBER: 7e-5},
				{AtOp: 300, Kind: EvChipKill, Chip: 2},
			},
		},
		{
			Name:         "smoke-drift-engine",
			Description:  "the drift campaign through the sharded engine backend",
			Seed:         seed,
			EngineShards: 2,
			Ops:          2000, WriteFrac: 0.3, OMVHitRate: 0.7,
			Events: []Event{
				{AtOp: 0, Kind: EvDrift, RBER: 2e-4},
			},
		},
		{
			Name:        "smoke-crash",
			Description: "crash/reboot: outage drift, BootScrub, byte-exact persistence",
			Seed:        seed,
			Ops:         600, WriteFrac: 0.4, OMVHitRate: 0.7,
			Events: []Event{
				{AtOp: 400, Kind: EvCrashReboot, RBER: 1e-3},
			},
		},
	}
}

// standardSuite is the acceptance gate: every fault class the scheme
// claims to handle, at runtime RBERs, with the fallback-rate check pinned
// to the paper's number.
func standardSuite(seed int64) []Campaign {
	// Each fallback round: fresh drift at the runtime RBER, a classified
	// sweep, then a refresh (boot scrub) so rounds are independent.
	fallbackRounds := 16
	var fallbackEvents []Event
	for i := 0; i < fallbackRounds; i++ {
		fallbackEvents = append(fallbackEvents,
			Event{Kind: EvDrift, RBER: 2e-4},
			Event{Kind: EvSweep},
			Event{Kind: EvBootScrub},
		)
	}
	return []Campaign{
		{
			Name:        "runtime-drift-low",
			Description: "low runtime RBER: reads almost entirely clean or RS-corrected",
			Seed:        seed,
			Ops:         4000, WriteFrac: 0.3, OMVHitRate: 0.7,
			Events: []Event{
				{AtOp: 0, Kind: EvDrift, RBER: 7e-5},
				{AtOp: 2000, Kind: EvDrift, RBER: 7e-5},
			},
		},
		{
			Name:        "fallback-rate",
			Description: "VLEW-fallback rate pinned within 2x of the paper's ~0.018%",
			Seed:        seed,
			Banks:       4, RowsPerBank: 16, RowBytes: 1024,
			Ops:    0,
			Events: fallbackEvents,
			Expect: Expect{FallbackRate: &paperFallbackBand, MinFallback: 10},
		},
		{
			Name:        "write-stress",
			Description: "XOR-delta bus faults plus targeted data/code/parity flips",
			Seed:        seed,
			Ops:         6000, WriteFrac: 0.5, OMVHitRate: 0.6,
			Events: []Event{
				{AtOp: 500, Kind: EvDeltaCorrupt},
				{AtOp: 1500, Kind: EvDeltaCorrupt},
				{AtOp: 2500, Kind: EvDeltaCorrupt},
				{AtOp: 3000, Kind: EvDrift, RBER: 7e-5},
				{AtOp: 3500, Kind: EvDeltaCorrupt},
				{AtOp: 4000, Kind: EvFlip, Region: RegionData, Chip: ChipRandom, Bits: 12},
				{AtOp: 4500, Kind: EvFlip, Region: RegionCode, Chip: ChipRandom, Bits: 12},
				{AtOp: 5000, Kind: EvFlip, Region: RegionParity, Bits: 8},
				{AtOp: 5500, Kind: EvDeltaCorrupt},
			},
		},
		{
			Name:        "crash-reboot",
			Description: "two crash cycles with a parallel scrub pool and stats monitor",
			Seed:        seed,
			Ops:         3000, WriteFrac: 0.4, OMVHitRate: 0.7,
			ScrubWorkers: 4, ProbeStatsDuringScrub: true,
			Events: []Event{
				{AtOp: 1000, Kind: EvCrashReboot, RBER: 1e-3},
				{AtOp: 2000, Kind: EvCrashReboot, RBER: 1e-3},
			},
		},
		{
			Name:        "chipkill-runtime",
			Description: "chip kill with drift present: every later read erasure-decodes",
			Seed:        seed,
			Banks:       1, RowsPerBank: 8, RowBytes: 1024,
			Ops: 2500, WriteFrac: 0.3, OMVHitRate: 0.7,
			Events: []Event{
				{AtOp: 500, Kind: EvDrift, RBER: 7e-5},
				{AtOp: 1000, Kind: EvChipKill, Chip: 2},
			},
		},
		{
			Name:        "chipkill-rebuild",
			Description: "chip kill then crash: reboot scrub rebuilds the dead chip",
			Seed:        seed,
			Ops:         2000, WriteFrac: 0.3, OMVHitRate: 0.7,
			Events: []Event{
				{AtOp: 800, Kind: EvChipKill, Chip: 5},
				{AtOp: 1400, Kind: EvCrashReboot, RBER: 3e-4},
			},
		},
		{
			Name:        "parity-kill",
			Description: "parity-chip kill: data survives, reboot re-encodes the parity",
			Seed:        seed,
			Ops:         1500, WriteFrac: 0.3, OMVHitRate: 0.7,
			Events: []Event{
				{AtOp: 500, Kind: EvChipKill, Chip: ChipParity},
				{AtOp: 1000, Kind: EvCrashReboot, RBER: 1e-4},
			},
		},
		{
			Name:        "outage-chipkill",
			Description: "week-long outage at 1e-3 with a dead chip: boot scrub rebuilds it",
			Seed:        seed,
			Ops:         1500, WriteFrac: 0.3, OMVHitRate: 0.7,
			Events: []Event{
				{AtOp: 500, Kind: EvChipKill, Chip: ChipRandom},
				{AtOp: 500, Kind: EvCrashReboot, RBER: 1e-3},
				{AtOp: 1000, Kind: EvChipKill, Chip: ChipParity},
				{AtOp: 1000, Kind: EvCrashReboot, RBER: 1e-3},
			},
		},
		{
			Name:        "degraded-mode",
			Description: "Sec V-E remapped mode serving reads and writes under drift",
			Seed:        seed,
			Banks:       1, RowsPerBank: 4, RowBytes: 512,
			Ops: 2000, WriteFrac: 0.3, OMVHitRate: 0.5,
			Events: []Event{
				{AtOp: 600, Kind: EvChipKill, Chip: 3},
				{AtOp: 600, Kind: EvEnterDegraded, Chip: 3},
				{AtOp: 1200, Kind: EvDrift, RBER: 7e-5},
			},
		},
	}
}

// guardSuite exercises the self-healing runtime: the internal/guard
// supervisor detecting and repairing faults in the loop, with the oracle
// holding it to zero SDC and zero lost writes.
func guardSuite(seed int64) []Campaign {
	return []Campaign{
		{
			Name:        "guard-chipkill-load",
			Description: "chip dies under live traffic; online conviction and migration",
			Seed:        seed,
			Banks:       4, RowsPerBank: 8, RowBytes: 1024,
			Ops: 200, WriteFrac: 0.3, OMVHitRate: 0.7,
			Guard: &GuardSpec{Scenario: ScenarioChipKillUnderLoad, KillChip: 2},
		},
		{
			Name:        "guard-crash-migration",
			Description: "journal write tears mid-migration; reboot resumes and finishes",
			Seed:        seed,
			Ops:         0, WriteFrac: 0.3, OMVHitRate: 0.7,
			Guard: &GuardSpec{Scenario: ScenarioCrashDuringMigration, KillChip: 1},
		},
		{
			Name:        "guard-transient-storm",
			Description: "telemetry storm from a healthy chip; probes must acquit",
			Seed:        seed,
			Ops:         0, WriteFrac: 0.3, OMVHitRate: 0.7,
			Guard: &GuardSpec{Scenario: ScenarioTransientStorm},
		},
	}
}

// fleetSuite drives the multi-rank fleet: replication placement, whole-
// rank kills under load, telemetry-directed replication feeding
// repair-from-replica, anti-entropy, and the double-fault matrix. Every
// campaign holds the fleet to zero SDC and zero unreported DUEs —
// rank-scale losses must surface as the typed contained failure.
func fleetSuite(seed int64) []Campaign {
	return []Campaign{
		{
			Name:        "fleet-rank-kill",
			Description: "whole-rank kill: replicated bands fail over, the rest contain",
			Seed:        seed,
			RowsPerBank: 4,
			Ops:         800, WriteFrac: 0.3,
			Fleet: &FleetSpec{Scenario: ScenarioFleetRankKill, Ranks: 3},
		},
		{
			Name:        "fleet-rank-kill-load",
			Description: "rank kill under concurrent demand: no acked write lost",
			Seed:        seed,
			RowsPerBank: 4,
			Ops:         0, WriteFrac: 0.3,
			Fleet: &FleetSpec{Scenario: ScenarioFleetRankKillLoad, Ranks: 3},
		},
		{
			Name:        "fleet-chip-repair",
			Description: "telemetry-led replication, then chip conviction repaired from replicas",
			Seed:        seed,
			RowsPerBank: 4,
			Ops:         0, WriteFrac: 0.3,
			Fleet: &FleetSpec{Scenario: ScenarioFleetChipRepair, Ranks: 3},
		},
		{
			Name:        "fleet-replica-divergence",
			Description: "silently diverged replicas healed by anti-entropy, proven by failover",
			Seed:        seed,
			RowsPerBank: 4,
			Ops:         0, WriteFrac: 0.3,
			Fleet: &FleetSpec{Scenario: ScenarioFleetDivergence, Ranks: 3},
		},
		{
			Name:        "fleet-kill-during-repair",
			Description: "replica rank dies mid-chip-repair; erasure fallback finishes it",
			Seed:        seed,
			RowsPerBank: 4,
			Ops:         0, WriteFrac: 0.3,
			Fleet: &FleetSpec{Scenario: ScenarioFleetKillMidRepair, Ranks: 3},
		},
		{
			Name:        "fleet-double-fault",
			Description: "one chip down on each of two ranks; both repair via the other",
			Seed:        seed,
			RowsPerBank: 4,
			Ops:         0, WriteFrac: 0.3,
			Fleet: &FleetSpec{Scenario: ScenarioFleetDoubleFault, Ranks: 2},
		},
	}
}

// escapeSuite demonstrates the scheme's documented trust boundary: an OMV
// corrupted below the LLC's ECC produces a fully consistent codeword for
// the wrong data. Only the model-based oracle catches it; the campaign
// passes precisely because the oracle reports SDC.
func escapeSuite(seed int64) []Campaign {
	return []Campaign{
		{
			Name:        "omv-escape",
			Description: "OMV corrupted below the LLC ECC: only the oracle sees the SDC",
			Seed:        seed,
			Ops:         400, WriteFrac: 1.0, OMVHitRate: 1.0,
			Events: []Event{
				{AtOp: 200, Kind: EvOMVCorrupt},
			},
			Expect: Expect{AllowSDC: true},
		},
	}
}

// soakSuite is the deep campaign set kept out of the default test run
// (`-tags soak`, `faultcampaign -suite soak`): larger ranks, more rounds,
// and the full kill matrix over every chip including parity.
func soakSuite(seed int64) []Campaign {
	rounds := 8
	var driftEvents []Event
	for i := 0; i < rounds; i++ {
		driftEvents = append(driftEvents,
			Event{AtOp: i * 2500, Kind: EvDrift, RBER: 2e-4},
			Event{AtOp: i*2500 + 1250, Kind: EvSweep},
			Event{AtOp: i*2500 + 1250, Kind: EvBootScrub},
		)
	}
	cs := []Campaign{
		{
			Name:        "soak-drift",
			Description: "eight drift/sweep/scrub rounds over a larger rank",
			Seed:        seed,
			Banks:       4, RowsPerBank: 32, RowBytes: 2048,
			Ops: rounds * 2500, WriteFrac: 0.3, OMVHitRate: 0.7,
			Events: driftEvents,
			Expect: Expect{MinFallback: 10},
		},
		{
			Name:        "soak-crash-cycles",
			Description: "five crash cycles at boot-scale RBER with parallel scrubs",
			Seed:        seed,
			Banks:       4, RowsPerBank: 16, RowBytes: 1024,
			Ops: 10000, WriteFrac: 0.4, OMVHitRate: 0.7,
			ScrubWorkers: 8, ProbeStatsDuringScrub: true,
			Events: []Event{
				{AtOp: 2000, Kind: EvCrashReboot, RBER: 1e-3},
				{AtOp: 4000, Kind: EvCrashReboot, RBER: 1e-3},
				{AtOp: 6000, Kind: EvCrashReboot, RBER: 1e-3},
				{AtOp: 8000, Kind: EvCrashReboot, RBER: 1e-3},
				{AtOp: 10000, Kind: EvCrashReboot, RBER: 1e-3},
			},
		},
	}
	// Kill matrix: every data chip plus the parity chip, each killed
	// mid-run and rebuilt across a crash.
	for ci := 0; ci < 9; ci++ {
		chip := ci
		name := fmt.Sprintf("soak-kill-chip%d", ci)
		desc := fmt.Sprintf("kill data chip %d mid-run, rebuild across a crash", ci)
		if ci == 8 {
			chip = ChipParity
			name = "soak-kill-parity"
			desc = "kill the parity chip mid-run, rebuild across a crash"
		}
		cs = append(cs, Campaign{
			Name:        name,
			Description: desc,
			Seed:        seed,
			Ops:         2000, WriteFrac: 0.3, OMVHitRate: 0.7,
			Events: []Event{
				{AtOp: 700, Kind: EvChipKill, Chip: chip},
				{AtOp: 1400, Kind: EvCrashReboot, RBER: 2e-4},
			},
		})
	}
	return cs
}
