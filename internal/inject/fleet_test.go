package inject

import (
	"reflect"
	"testing"
)

// scrubTimings zeroes the wall-clock fields a report legitimately varies
// in across runs, leaving everything the determinism contract covers.
func scrubTimings(r *CampaignReport) *CampaignReport {
	r.ElapsedMS = 0
	if r.Fleet != nil {
		r.Fleet.RepairReplicaNSPerBlock = 0
		r.Fleet.RepairErasureNSPerBlock = 0
		r.Fleet.RepairSpeedup = 0
	}
	return r
}

// runFleetCampaign runs one named fleet campaign and fails the test if
// the campaign itself failed.
func runFleetCampaign(t *testing.T, name string, seed int64) *CampaignReport {
	t.Helper()
	campaigns, err := Suite("fleet", seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range campaigns {
		if c.Name != name {
			continue
		}
		rep := RunCampaign("fleet", c)
		if !rep.Pass {
			t.Fatalf("%s failed: %s\n%+v", name, rep.Reason, rep.Failures)
		}
		return rep
	}
	t.Fatalf("no campaign %q in the fleet suite", name)
	return nil
}

// The serial fleet campaigns must be bitwise deterministic: identical
// reports (timings aside) across two full runs, including every fleet
// counter — the rank-kill containment split and the double-fault repair
// totals cannot wobble.
func TestFleetCampaignsDeterministic(t *testing.T) {
	for _, name := range []string{"fleet-rank-kill", "fleet-double-fault"} {
		t.Run(name, func(t *testing.T) {
			first := scrubTimings(runFleetCampaign(t, name, 7))
			second := scrubTimings(runFleetCampaign(t, name, 7))
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("reports differ across runs:\n%+v\n%+v", first, second)
			}
		})
	}
}

// TestFleetSuite is the fleet-smoke gate: the whole suite, one seed,
// zero SDC, zero unreported DUEs.
func TestFleetSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet suite takes a few seconds")
	}
	rep, err := RunSuite("fleet", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rep.Campaigns {
		if !cr.Pass {
			t.Errorf("%s: %s", cr.Name, cr.Reason)
		}
		if cr.SDC != 0 || cr.DUE != 0 {
			t.Errorf("%s: sdc=%d due=%d", cr.Name, cr.SDC, cr.DUE)
		}
	}
	if !rep.Pass {
		t.Fatal("fleet suite failed")
	}
}

// The chip-repair campaign carries the PR's measured claim; pin that the
// report actually contains both timings and that the replica path won.
func TestFleetChipRepairMeasuresSpeedup(t *testing.T) {
	rep := runFleetCampaign(t, "fleet-chip-repair", 11)
	f := rep.Fleet
	if f == nil {
		t.Fatal("no fleet report")
	}
	if f.RepairReplicaNSPerBlock <= 0 || f.RepairErasureNSPerBlock <= 0 {
		t.Fatalf("missing repair timings: %+v", f)
	}
	if f.RepairSpeedup <= 1 {
		t.Fatalf("replica repair not faster than erasure: %.2fx", f.RepairSpeedup)
	}
	if f.ExternalRepairs != 1 || f.Verdicts != 1 {
		t.Fatalf("conviction/repair counters off: %+v", f)
	}
}

// Fleet campaigns reject the single-rank knobs they cannot honour.
func TestFleetCampaignRejectsEngineKnobs(t *testing.T) {
	_, err := NewHarness("test", Campaign{
		Name: "bad", Fleet: &FleetSpec{Scenario: ScenarioFleetRankKill, Ranks: 3},
		EngineShards: 2,
	})
	if err == nil {
		t.Fatal("fleet campaign with EngineShards built successfully")
	}
}
