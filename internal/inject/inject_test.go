package inject

import (
	"encoding/json"
	"testing"
)

// requireSuitePass runs a suite and fails the test with full per-campaign
// detail (including repro commands) on any campaign failure.
func requireSuitePass(t *testing.T, suite string, seed int64) *Report {
	t.Helper()
	rep, err := RunSuite(suite, seed)
	if err != nil {
		t.Fatalf("RunSuite(%q, %d): %v", suite, seed, err)
	}
	for _, cr := range rep.Campaigns {
		t.Logf("%s", cr.Summary())
		if !cr.Pass {
			t.Errorf("campaign %s failed: %s\nrepro: %s", cr.Name, cr.Reason, cr.Repro)
			for _, f := range cr.Failures {
				t.Errorf("  op=%d block=%d kind=%s: %s", f.Op, f.Block, f.Kind, f.Detail)
			}
		}
	}
	return rep
}

// TestSmokeSuite is the short campaign gate that runs under a plain
// `go test ./...`: one campaign per headline fault class, zero SDC/DUE.
func TestSmokeSuite(t *testing.T) {
	rep := requireSuitePass(t, "smoke", 1)
	if rep.TotalSDC != 0 {
		t.Fatalf("smoke suite saw %d SDCs", rep.TotalSDC)
	}
}

// TestEscapeSuite checks the oracle's reason for existing: an OMV
// corrupted below the LLC's ECC yields a consistent codeword for wrong
// data, which only the shadow map can flag — the campaign must report
// SDC with zero DUEs.
func TestEscapeSuite(t *testing.T) {
	rep := requireSuitePass(t, "escape", 1)
	if rep.TotalSDC == 0 {
		t.Fatal("escape suite produced no SDC; the oracle caught nothing")
	}
	if rep.TotalDUE != 0 {
		t.Fatalf("escape suite saw %d DUEs; OMV corruption must be silent", rep.TotalDUE)
	}
}

// TestDeltaCorruptIsCorrected pins the write-path fault model: a one-bit
// corrupted XOR delta leaves the chip internally consistent but off by
// one RS symbol, which the per-block RS corrects on the next read.
func TestDeltaCorruptIsCorrected(t *testing.T) {
	cr := RunCampaign("unit", Campaign{
		Name: "delta-corrupt-unit", Seed: 7,
		Banks: 1, RowsPerBank: 2, RowBytes: 512,
		Ops: 200, WriteFrac: 1.0, OMVHitRate: 1.0,
		Events: []Event{
			{AtOp: 50, Kind: EvDeltaCorrupt},
			{AtOp: 100, Kind: EvDeltaCorrupt},
		},
	})
	if !cr.Pass {
		t.Fatalf("campaign failed: %s", cr.Reason)
	}
	if cr.DeltaCorrupts != 2 {
		t.Fatalf("armed 2 delta corrupts, fired %d", cr.DeltaCorrupts)
	}
	if cr.CorrectedRS == 0 {
		t.Fatal("delta corruption never engaged the RS corrector")
	}
	if cr.SDC != 0 || cr.DUE != 0 {
		t.Fatalf("delta corruption leaked: sdc=%d due=%d", cr.SDC, cr.DUE)
	}
}

// TestCampaignDeterminism re-runs one eventful campaign and requires the
// reports to match counter for counter — the property that makes every
// failure's repro command meaningful.
func TestCampaignDeterminism(t *testing.T) {
	c := Campaign{
		Name: "determinism", Seed: 42,
		Banks: 1, RowsPerBank: 4, RowBytes: 1024,
		Ops: 1500, WriteFrac: 0.4, OMVHitRate: 0.6,
		ScrubWorkers: 4,
		// Note: no delta-corrupt here. A delta-corrupted chip is
		// internally consistent, so it survives boot scrub unseen; a
		// later chip-kill rebuild then does an 8-erasure RS decode with
		// zero error margin and bakes the corruption into a valid-but-
		// wrong codeword — a genuine modeled escape (the paper assumes
		// the chip bus itself is protected), not a campaign to pass.
		Events: []Event{
			{AtOp: 200, Kind: EvDrift, RBER: 1e-4},
			{AtOp: 600, Kind: EvChipKill, Chip: 1},
			{AtOp: 900, Kind: EvCrashReboot, RBER: 5e-4},
		},
	}
	a := RunCampaign("unit", c)
	b := RunCampaign("unit", c)
	a.ElapsedMS, b.ElapsedMS = 0, 0
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same campaign, same seed, different reports:\n%s\n%s", ja, jb)
	}
	if !a.Pass {
		t.Fatalf("determinism campaign failed: %s", a.Reason)
	}
}

// TestEngineCampaignMatchesSerial pins the engine backend's semantics:
// a campaign driven serially through the sharded engine must produce the
// exact report, counter for counter, that the bare controller produces. Same name and seed give identical rng streams; the only
// report fields allowed to differ are the timing and the engine_shards
// tag itself. Seqlock reads folding their stats differently from locked
// reads would show up here as a counter diff.
func TestEngineCampaignMatchesSerial(t *testing.T) {
	c := Campaign{
		Name: "engine-equivalence", Seed: 17,
		Banks: 4, RowsPerBank: 8, RowBytes: 1024,
		Ops: 1500, WriteFrac: 0.4, OMVHitRate: 0.6,
		ScrubWorkers: 2,
		Events: []Event{
			{AtOp: 200, Kind: EvDrift, RBER: 2e-4},
			{AtOp: 600, Kind: EvChipKill, Chip: 1},
			{AtOp: 900, Kind: EvCrashReboot, RBER: 5e-4},
		},
	}
	serial := RunCampaign("unit", c)
	c.EngineShards = 4
	engined := RunCampaign("unit", c)

	if !serial.Pass {
		t.Fatalf("serial campaign failed: %s", serial.Reason)
	}
	if !engined.Pass {
		t.Fatalf("engine campaign failed: %s", engined.Reason)
	}
	if engined.SDC != 0 || engined.DUE != 0 {
		t.Fatalf("engine campaign leaked: sdc=%d due=%d", engined.SDC, engined.DUE)
	}
	if engined.EngineShards != 4 {
		t.Fatalf("engine report tagged with %d shards, want 4", engined.EngineShards)
	}
	serial.ElapsedMS, engined.ElapsedMS = 0, 0
	serial.EngineShards, engined.EngineShards = 0, 0
	js, _ := json.Marshal(serial)
	je, _ := json.Marshal(engined)
	if string(js) != string(je) {
		t.Fatalf("engine and serial backends diverged:\nserial: %s\nengine: %s", js, je)
	}
}

// TestSeedChangesOutcome guards against the engine silently ignoring the
// seed: different seeds must drive different workloads.
func TestSeedChangesOutcome(t *testing.T) {
	c := Campaign{
		Name:  "seed-sensitivity",
		Banks: 1, RowsPerBank: 2, RowBytes: 512,
		Ops: 500, WriteFrac: 0.5, OMVHitRate: 0.5,
		Events: []Event{{AtOp: 0, Kind: EvDrift, RBER: 2e-4}},
	}
	c.Seed = 1
	a := RunCampaign("unit", c)
	c.Seed = 2
	b := RunCampaign("unit", c)
	if a.Writes == b.Writes && a.BitsInjected == b.BitsInjected {
		t.Fatalf("seeds 1 and 2 produced identical workloads (writes=%d bits=%d)", a.Writes, a.BitsInjected)
	}
}

// TestConcurrentCampaign runs a small campaign whose boot scrubs use a
// worker pool while a monitor goroutine hammers Controller.Stats — the
// stats concurrency contract under real campaign load. This is the
// campaign that `make race` exercises with the detector on.
func TestConcurrentCampaign(t *testing.T) {
	cr := RunCampaign("unit", Campaign{
		Name: "concurrent-scrub", Seed: 3,
		Banks: 2, RowsPerBank: 4, RowBytes: 1024,
		Ops: 600, WriteFrac: 0.4, OMVHitRate: 0.7,
		ScrubWorkers: 4, ProbeStatsDuringScrub: true,
		Events: []Event{
			{AtOp: 200, Kind: EvCrashReboot, RBER: 1e-3},
			{AtOp: 400, Kind: EvCrashReboot, RBER: 1e-3},
		},
	})
	if !cr.Pass {
		t.Fatalf("concurrent campaign failed: %s", cr.Reason)
	}
	if cr.Crashes != 2 || cr.Scrubs != 2 {
		t.Fatalf("expected 2 crash/scrub cycles, got crashes=%d scrubs=%d", cr.Crashes, cr.Scrubs)
	}
}

// TestUnknownSuite pins the error path the CLI relies on.
func TestUnknownSuite(t *testing.T) {
	if _, err := Suite("no-such-suite", 1); err == nil {
		t.Fatal("expected an error for an unknown suite")
	}
}

// TestReportExpectations unit-tests finish()'s verdict logic.
func TestReportExpectations(t *testing.T) {
	cases := []struct {
		name string
		rep  CampaignReport
		pass bool
	}{
		{"clean", CampaignReport{Reads: 100}, true},
		{"sdc fails", CampaignReport{Reads: 100, SDC: 1}, false},
		{"due fails by default", CampaignReport{Reads: 100, DUE: 1}, false},
		{"due within budget", CampaignReport{Reads: 100, DUE: 1, Expect: Expect{MaxDUE: 2}}, true},
		{"allow-sdc needs sdc", CampaignReport{Reads: 100, Expect: Expect{AllowSDC: true}}, false},
		{"allow-sdc with sdc", CampaignReport{Reads: 100, SDC: 3, Expect: Expect{AllowSDC: true}}, true},
		{"fallback band low", CampaignReport{Reads: 1000, Fallback: 0,
			Expect: Expect{FallbackRate: &Band{Lo: 0.01, Hi: 0.1}}}, false},
		{"fallback band in", CampaignReport{Reads: 1000, Fallback: 50,
			Expect: Expect{FallbackRate: &Band{Lo: 0.01, Hi: 0.1}}}, true},
		{"min fallback", CampaignReport{Reads: 1000, Fallback: 2, Expect: Expect{MinFallback: 5}}, false},
		{"event failure fails", CampaignReport{Reads: 10,
			Failures: []Failure{{Kind: "event", Detail: "x"}}}, false},
	}
	for _, tc := range cases {
		tc.rep.finish()
		if tc.rep.Pass != tc.pass {
			t.Errorf("%s: pass=%v want %v (reason %q)", tc.name, tc.rep.Pass, tc.pass, tc.rep.Reason)
		}
	}
}

// TestGuardSuite runs the self-healing scenarios: chip-kill under
// concurrent load, crash mid-migration with journal recovery, and a
// transient storm the supervisor must acquit. The concurrent scenario is
// also a race detector target (it runs under `make race`).
func TestGuardSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("guard suite is heavy; run without -short")
	}
	rep := requireSuitePass(t, "guard", 1)
	if rep.TotalSDC != 0 || rep.TotalDUE != 0 {
		t.Fatalf("guard suite saw %d SDCs, %d DUEs", rep.TotalSDC, rep.TotalDUE)
	}
	for _, cr := range rep.Campaigns {
		if cr.Guard == nil {
			t.Fatalf("campaign %s reported no guard summary", cr.Name)
		}
		switch cr.Guard.Scenario {
		case ScenarioChipKillUnderLoad:
			if cr.Guard.OpsDuringMigration == 0 {
				t.Errorf("%s: no traffic overlapped the migration", cr.Name)
			}
		case ScenarioCrashDuringMigration:
			if !cr.Guard.MigrationResumed {
				t.Errorf("%s: journal recovery never resumed", cr.Name)
			}
		case ScenarioTransientStorm:
			if cr.Guard.Verdicts != 0 || cr.Guard.BandsMigrated != 0 {
				t.Errorf("%s: spurious verdict or migration", cr.Name)
			}
		}
	}
}

// TestGuardCampaignKillsChipZero kills data chip 0, whose index is the
// zero value of GuardSpec.KillChip: the crash-during-migration scenario
// must convict, journal and finish the migration around chip 0 itself,
// with zero SDC and zero DUE.
func TestGuardCampaignKillsChipZero(t *testing.T) {
	h, err := NewHarness("test", Campaign{
		Name: "guard-crash-chip0", Seed: 1, WriteFrac: 0.3, OMVHitRate: 0.7,
		Guard: &GuardSpec{Scenario: ScenarioCrashDuringMigration, KillChip: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := h.Run()
	if !cr.Pass || cr.SDC != 0 || cr.DUE != 0 {
		t.Fatalf("campaign: pass=%v sdc=%d due=%d: %s", cr.Pass, cr.SDC, cr.DUE, cr.Reason)
	}
	if g := cr.Guard; g == nil || !g.MigrationResumed || g.BandsMigrated == 0 {
		t.Fatalf("guard summary %+v: want a resumed migration", cr.Guard)
	}
	if d, chip := h.eng.Degraded(); !d || chip != 0 {
		t.Fatalf("rank degraded=%v around chip %d, want degraded around chip 0", d, chip)
	}
}

// TestCampaignSpecsStateEveryValue pins that a spec states every value
// it uses, with no default behind a zero: NewHarness rejects a chip kill
// that names no data chip and a fleet of fewer than two ranks.
func TestCampaignSpecsStateEveryValue(t *testing.T) {
	for _, c := range []Campaign{
		{Name: "parity", Guard: &GuardSpec{Scenario: ScenarioChipKillUnderLoad, KillChip: 8}},
		{Name: "negative", Guard: &GuardSpec{Scenario: ScenarioCrashDuringMigration, KillChip: -1}},
		{Name: "no ranks", Fleet: &FleetSpec{Scenario: ScenarioFleetRankKill}},
		{Name: "one rank", Fleet: &FleetSpec{Scenario: ScenarioFleetChipRepair, Ranks: 1}},
	} {
		if _, err := NewHarness("test", c); err == nil {
			t.Errorf("campaign %q built", c.Name)
		}
	}
	if _, err := NewHarness("test", Campaign{Name: "storm", Guard: &GuardSpec{Scenario: ScenarioTransientStorm}}); err != nil {
		t.Errorf("transient storm, which kills no chip: %v", err)
	}
}

// TestOutageChipkillRebuildsBothChips runs the standard suite's
// outage-chipkill campaign: two week-long outages at RBER 1e-3, the
// first with a random data chip dead and the second with the parity chip
// dead. Each boot scrub must rebuild its chip, so both crashes verify
// every block byte-exact and the run ends with every chip healthy.
func TestOutageChipkillRebuildsBothChips(t *testing.T) {
	var c Campaign
	for _, sc := range standardSuite(1) {
		if sc.Name == "outage-chipkill" {
			c = sc
		}
	}
	h, err := NewHarness("standard", c)
	if err != nil {
		t.Fatal(err)
	}
	cr := h.Run()
	if !cr.Pass || cr.SDC != 0 || cr.DUE != 0 {
		t.Fatalf("campaign: pass=%v sdc=%d due=%d: %s", cr.Pass, cr.SDC, cr.DUE, cr.Reason)
	}
	if cr.ChipKills != 2 || cr.Crashes != 2 || cr.Scrubs != 2 {
		t.Fatalf("kills=%d crashes=%d scrubs=%d, want 2 of each", cr.ChipKills, cr.Crashes, cr.Scrubs)
	}
	if n := h.Rank().FailedChips(); n != 0 {
		t.Fatalf("%d chips still failed after both boot scrubs", n)
	}
}
