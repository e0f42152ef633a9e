package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Same seed, same streams; another seed, other streams — for every
// workload, on the block space it runs on.
func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		blocks, group := int64(16384), int64(128)
		if w.onFleet {
			blocks, group = 18432, 32
		}
		digestOf := func(seed uint64) string {
			sh := newShadow(blocks, group, 2, seed)
			streams, err := w.pattern(seed, sh, blocks)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			for c, s := range streams {
				for _, e := range s.ring {
					if b := ringBlock(e); b < 0 || b >= blocks {
						t.Fatalf("%s: block %d outside [0,%d)", w.name, b, blocks)
					} else if e < 0 && sh.owner(b) != c {
						t.Fatalf("%s: client %d writes block %d owned by client %d", w.name, c, b, sh.owner(b))
					}
				}
			}
			return digest(sh, streams, engineRankConfig(seed).Seed)
		}
		if a, b := digestOf(1), digestOf(1); a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a, b)
		}
		if a, b := digestOf(1), digestOf(2); a == b {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w.name, a)
		}
	}
}

// The contract file, the metric tables and the workload list name the
// same things: later changes are judged by these names.
func TestBenchmarkJSONMatches(t *testing.T) {
	var c contract
	if err := loadJSON(filepath.Join("..", "BENCHMARK.json"), &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract lists %d workloads, the benchmark runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: contract has %q (%q), benchmark has %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("contract lists %d %s metrics, the benchmark reports %d", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d: contract has %+v, benchmark has %+v", kind, i, g, m)
			}
			if !metricName.MatchString(m.name) {
				t.Errorf("%s: not a valid metric name", m.name)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	check("end-to-end", c.EndToEnd, endToEnd, true)
	check("per-layer", c.PerLayer, perLayer, false)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("contract run_seconds %d, benchmark default %d", c.RunSeconds, defaultSeconds)
	}
}

// Every workload and the traced ladder, in -quick form: the schema is
// complete, nothing fails verification, and the two write workloads
// really differ in what they are named for.
func TestQuickRunOfEverything(t *testing.T) {
	traceDir := t.TempDir()
	layers := map[string]map[string]float64{}
	for i := range workloads {
		w := &workloads[i]
		rep, err := measure(w, options{seed: 1, quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 || rep.FailedOpsRatio != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, rep.Attempted, rep.Failed)
		}
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(rep.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := rep.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("%s: %s = %+v", w.name, m.name, v)
			}
		}

		traced, err := measure(w, options{seed: 1, quick: true, trace: true, traceDir: traceDir})
		if err != nil {
			t.Fatal(err)
		}
		if traced.Failed != 0 || traced.StreamDigest != rep.StreamDigest {
			t.Errorf("%s traced: failed %d, digest %s vs %s", w.name, traced.Failed, traced.StreamDigest, rep.StreamDigest)
		}
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(traced.Metrics), len(perLayer))
		}
		layers[w.name] = map[string]float64{}
		for _, m := range perLayer {
			v, ok := traced.Metrics[m.name]
			if !ok || v.Unit != m.unit {
				t.Errorf("%s: %s = %+v", w.name, m.name, v)
			}
			if strings.HasSuffix(m.name, "_ns") && !strings.Contains(m.name, "_self_") && v.Value <= 0 {
				t.Errorf("%s: rung %s measured %g", w.name, m.name, v.Value)
			}
			layers[w.name][m.name] = v.Value
		}
		raw, err := os.ReadFile(filepath.Join(traceDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(raw, &spans); err != nil || len(spans) < len(perLayer)/2 || spans[0].Parent != -1 {
			t.Errorf("%s: span file: %d spans, %v", w.name, len(spans), err)
		}
	}
	random, local := layers["write_random"]["nvram.c_factor"], layers["write_rowlocal"]["nvram.c_factor"]
	if random < 10*local || local <= 0 {
		t.Errorf("nvram.c_factor: write_random %g, write_rowlocal %g: the EUR should coalesce at least 10x better on the row-local stream", random, local)
	}
	if got := layers["read_clean"]["core.vlew_fallback_ratio"]; got != 0 {
		t.Errorf("read_clean reached the VLEW fallback (%g)", got)
	}
	if got := layers["read_drift"]["core.rs_corrected_ratio"]; got < 0.05 || got > 0.2 {
		t.Errorf("read_drift: RS corrects %g of reads, want about 0.11", got)
	}
}

// Counters that come from fixed-count replays repeat exactly for a seed.
func TestExactRepeatCounters(t *testing.T) {
	w := findWorkload("read_drift")
	var runs []workloadReport
	for i := 0; i < 2; i++ {
		rep, err := measure(w, options{seed: 5, quick: true, trace: true, traceDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, rep)
	}
	for _, name := range []string{"core.scrub_bits_corrected", "core.vlew_fallback_ratio", "core.rs_corrected_ratio", "core.omv_hit_ratio", "guard.patrol_corrected", "fleet.active_replicas"} {
		a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
		if a != b {
			t.Errorf("%s: %g then %g with the same seed", name, a, b)
		}
	}
	if runs[0].Metrics["core.scrub_bits_corrected"].Value == 0 {
		t.Error("the ladder's boot scrub corrected nothing")
	}
}

func TestCompareJudgesByDirectionAndBound(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	contractPath := write("contract.json", contract{EndToEnd: []contractMetric{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.08},
		{Name: "read_p99_ns", Unit: "ns", Better: "lower", Bound: 0.15},
	}})
	rep := func(ops, p99, failed float64) report {
		return report{Workloads: []workloadReport{{
			Name: "read_clean", FailedOpsRatio: failed,
			Metrics: map[string]metricValue{"ops_per_s": {ops, "1/s"}, "read_p99_ns": {p99, "ns"}},
		}}}
	}
	base := write("base.json", rep(1000, 300, 0))
	cases := []struct {
		name   string
		other  report
		status int
		says   string
	}{
		{"same", rep(1000, 300, 0), 0, "2 end-to-end pairings compared, 0 regressed"},
		{"inside the bounds", rep(930, 340, 0), 0, "0 regressed"},
		{"throughput down", rep(900, 300, 0), 1, "regressed (worse by 10.0%, bound 8%)"},
		{"tail up", rep(1000, 360, 0), 1, "regressed (worse by 20.0%, bound 15%)"},
		{"better", rep(1200, 200, 0), 0, "improved (better by 20.0%)"},
		{"a failure appears", rep(1000, 300, 1e-6), 1, "regressed"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		got := compareReports(contractPath, base, write("other.json", tc.other), &out)
		if got != tc.status || !strings.Contains(out.String(), tc.says) {
			t.Errorf("%s: exit status %d (want %d), output:\n%s", tc.name, got, tc.status, out.String())
		}
	}
	// The comparison is directional: what regressed one way improved the other.
	var out bytes.Buffer
	if got := compareReports(contractPath, write("slow.json", rep(900, 300, 0)), base, &out); got != 0 || !strings.Contains(out.String(), "improved") {
		t.Errorf("reverse comparison: exit status %d, output:\n%s", got, out.String())
	}
}
