package experiments

import (
	"strings"
	"testing"

	"chipkillpm/internal/nvram"
)

func TestAnalyticTablesWellFormed(t *testing.T) {
	cases := map[string]interface{ String() string }{
		"fig1":     Fig1RBER(),
		"fig2":     Fig2StorageCost(),
		"fig3":     Fig3FlashECC(),
		"fig4":     Fig4CodewordSweep(1e-3),
		"fig5":     Fig5Bandwidth(),
		"fig7":     Fig7ErrorDistribution(2e-4),
		"fig13":    Fig13HWCost(),
		"storage":  StorageSummary(),
		"appendix": AppendixSDC(),
		"scrub":    ScrubAnalysis(),
		"fallback": FallbackAnalysis(),
		"table1":   TableIConfig(),
		"ablThr":   AblationThreshold(),
	}
	for name, tab := range cases {
		out := tab.String()
		if len(out) < 40 || !strings.Contains(out, "\n") {
			t.Errorf("%s: degenerate table output", name)
		}
	}
}

func TestFig4ContainsPaperPoint(t *testing.T) {
	out := Fig4CodewordSweep(1e-3).String()
	if !strings.Contains(out, "27.0%") {
		t.Errorf("Fig 4 missing the 27%% design point:\n%s", out)
	}
	if !strings.Contains(out, "256B") || !strings.Contains(out, "22") {
		t.Error("Fig 4 missing the 256B/t=22 row")
	}
}

func TestAppendixContainsPaperRates(t *testing.T) {
	out := AppendixSDC().String()
	for _, want := range []string{"3.20e-11", "3.26e-22"} {
		if !strings.Contains(out, want) {
			t.Errorf("appendix table missing %s:\n%s", want, out)
		}
	}
}

func TestStorageSummaryMatches(t *testing.T) {
	out := StorageSummary().String()
	for _, want := range []string{"14-bit EC", "78-bit EC", "27.0%", "152%"} {
		if !strings.Contains(out, want) {
			t.Errorf("storage summary missing %q", want)
		}
	}
}

func TestRunComparisonsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation campaign skipped in -short")
	}
	po := PerfOptions{Instructions: 150_000, Warmup: 40_000, Seed: 3}
	cmps, err := RunComparisons(nvram.ReRAM, po)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != 18 {
		t.Fatalf("%d comparisons, want 18", len(cmps))
	}
	for _, tab := range []interface{ String() string }{
		PerfTable(cmps, nvram.ReRAM), Fig10Table(cmps), Fig14Table(cmps),
		Fig15Table(cmps), Fig18Table(cmps), AblationEUR(cmps),
	} {
		if len(tab.String()) < 100 {
			t.Error("degenerate simulation table")
		}
	}
}

func TestAblationOMVRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short")
	}
	po := PerfOptions{Instructions: 150_000, Warmup: 40_000, Seed: 3}
	tab, err := AblationOMV(nvram.PCM3, po, "hashmap")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Errorf("OMV ablation rows = %d", len(tab.Rows))
	}
	tab2, err := AblationPagePolicy(nvram.PCM3, po, "fft")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab2.Rows) != 2 {
		t.Errorf("page-policy ablation rows = %d", len(tab2.Rows))
	}
}
