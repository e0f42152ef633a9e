package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// contract mirrors BENCHMARK.json, the file the repository's driver reads:
// it is the single place the end-to-end bounds live.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(m contractMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports gates report b against report a: one row per
// (workload, end-to-end metric) pairing with both values and b/a, judged
// by the metric's direction and bound in the contract file. Any pairing
// worse by more than its bound, or any rise in failed_ops_ratio, is a
// regression and makes the exit status 1. Per-layer metrics present in
// both reports are listed without a verdict: they have no bound.
func compareReports(contractPath, aPath, bPath string, out io.Writer) int {
	var c contract
	var a, b report
	for _, f := range []struct {
		path string
		v    any
	}{{contractPath, &c}, {aPath, &a}, {bPath, &b}} {
		if err := loadJSON(f.path, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	bByName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		bByName[w.Name] = w
	}
	fmt.Fprintf(out, "base %s (seed %d, %s, %d clients)\nnew  %s (seed %d, %s, %d clients)\n",
		aPath, a.Seed, a.Host.GoVersion, a.Host.Clients, bPath, b.Seed, b.Host.GoVersion, b.Host.Clients)
	fmt.Fprintf(out, "%-16s %-34s %16s %16s %9s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	regressions, pairings := 0, 0
	for _, wa := range a.Workloads {
		wb, ok := bByName[wa.Name]
		if !ok {
			continue
		}
		verdict := "ok"
		if wb.FailedOpsRatio > wa.FailedOpsRatio {
			verdict = "regressed"
			regressions++
		}
		fmt.Fprintf(out, "%-16s %-34s %16g %16g %9s  %s\n", wa.Name, "failed_ops_ratio", wa.FailedOpsRatio, wb.FailedOpsRatio, "-", verdict)
		for _, m := range c.EndToEnd {
			va, okA := wa.Metrics[m.Name]
			vb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			pairings++
			verdict := "ok"
			switch w := worseBy(m, va.Value, vb.Value); {
			case w > m.Bound:
				verdict = fmt.Sprintf("regressed (worse by %.1f%%, bound %.0f%%)", 100*w, 100*m.Bound)
				regressions++
			case -w > m.Bound:
				verdict = fmt.Sprintf("improved (better by %.1f%%)", -100*w)
			}
			fmt.Fprintf(out, "%-16s %-34s %16.4f %16.4f %9.3f  %s\n", wa.Name, m.Name, va.Value, vb.Value, ratioOf(vb.Value, va.Value), verdict)
		}
		for _, m := range c.PerLayer {
			va, okA := wa.Metrics[m.Name]
			vb, okB := wb.Metrics[m.Name]
			if okA && okB {
				fmt.Fprintf(out, "%-16s %-34s %16.4f %16.4f %9.3f  -\n", wa.Name, m.Name, va.Value, vb.Value, ratioOf(vb.Value, va.Value))
			}
		}
	}
	fmt.Fprintf(out, "%d end-to-end pairings compared, %d regressed\n", pairings, regressions)
	if regressions > 0 {
		return 1
	}
	return 0
}

func ratioOf(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
