// Command experiments regenerates every table and figure of the paper's
// evaluation. With no flags it runs everything; -fig selects one.
//
//	experiments -fig 16            # performance under ReRAM latencies
//	experiments -fig appendix      # the SDC (miscorrection) calculation
//	experiments -list              # what is available
//	experiments -instructions 8000000 -fig 17
package main

import (
	"flag"
	"fmt"
	"os"

	"chipkillpm/internal/experiments"
	"chipkillpm/internal/nvram"
	"chipkillpm/internal/sim"
	"chipkillpm/internal/stats"
)

var figures = []struct {
	id   string
	desc string
}{
	{"1", "RBER of NVRAM technologies vs time since refresh"},
	{"2", "storage cost of extended DRAM chipkill at NVRAM RBERs"},
	{"3", "Flash-style BCH strength vs BER (512B words)"},
	{"4", "storage cost vs ECC word length"},
	{"5", "bandwidth overheads of naive VLEW protection"},
	{"7", "distribution of byte errors per 64B request"},
	{"10", "dirty-PM cacheline occupancy (simulation)"},
	{"13", "hardware area/latency costs"},
	{"14", "off-chip access breakdown (simulation)"},
	{"15", "C factor per workload (simulation)"},
	{"16", "performance normalized to baseline, ReRAM (simulation)"},
	{"17", "performance normalized to baseline, PCM (simulation)"},
	{"18", "OMV LLC hit rate (simulation)"},
	{"table1", "simulated system configuration"},
	{"storage", "Sec III-A / V-A storage-cost summary"},
	{"scrub", "Sec V-B boot-scrub time"},
	{"fallback", "Sec V-C/V-E runtime correction rates"},
	{"appendix", "SDC rate calculation (Terms A and B)"},
	{"refresh", "refresh interval vs runtime RBER and correction rates"},
	{"termb", "empirical validation of the appendix's Term B"},
	{"ablation", "design-space ablations (threshold, OMV, EUR, page policy)"},
}

func main() {
	fig := flag.String("fig", "", "figure/table to regenerate (see -list); empty = all")
	list := flag.Bool("list", false, "list available figures")
	instructions := flag.Int64("instructions", 2_000_000, "measured instructions for simulation figures")
	warmup := flag.Int64("warmup", 600_000, "warmup instructions for simulation figures")
	seed := flag.Int64("seed", 7, "simulation seed")
	flag.Parse()

	if *list {
		for _, f := range figures {
			fmt.Printf("  %-10s %s\n", f.id, f.desc)
		}
		return
	}

	po := experiments.PerfOptions{Instructions: *instructions, Warmup: *warmup, Seed: *seed}
	if err := run(*fig, po); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func show(title string, tab *stats.Table) {
	fmt.Printf("== %s ==\n%s\n", title, tab)
}

// simCache avoids re-running the heavy three-pass simulation for every
// figure that shares it.
type simCache struct {
	po    experiments.PerfOptions
	reram []sim.Comparison
	pcm   []sim.Comparison
}

func (c *simCache) get(tech nvram.Tech) ([]sim.Comparison, error) {
	var slot *[]sim.Comparison
	if tech.Name == nvram.ReRAM.Name {
		slot = &c.reram
	} else {
		slot = &c.pcm
	}
	if *slot == nil {
		cmps, err := experiments.RunComparisons(tech, c.po)
		if err != nil {
			return nil, err
		}
		*slot = cmps
	}
	return *slot, nil
}

func run(fig string, po experiments.PerfOptions) error {
	cache := &simCache{po: po}
	all := fig == ""
	want := func(id string) bool { return all || fig == id }

	if want("table1") {
		show("Table I: simulated system", experiments.TableIConfig())
	}
	if want("1") {
		show("Fig 1: RBER vs time since refresh", experiments.Fig1RBER())
	}
	if want("2") {
		show("Fig 2: extended DRAM chipkill storage cost", experiments.Fig2StorageCost())
	}
	if want("3") {
		show("Fig 3: Flash-style BCH strength", experiments.Fig3FlashECC())
	}
	if want("4") {
		show("Fig 4: storage cost vs codeword length (RBER 1e-3)", experiments.Fig4CodewordSweep(1e-3))
	}
	if want("5") {
		show("Fig 5: naive-VLEW bandwidth overheads", experiments.Fig5Bandwidth())
	}
	if want("7") {
		show("Fig 7: byte errors per 64B request @ 2e-4", experiments.Fig7ErrorDistribution(2e-4))
	}
	if want("13") {
		show("Fig 13 / Sec V-E: hardware costs", experiments.Fig13HWCost())
	}
	if want("storage") {
		show("Secs III-A & V-A: storage summary", experiments.StorageSummary())
	}
	if want("scrub") {
		show("Sec V-B: boot scrub time", experiments.ScrubAnalysis())
	}
	if want("fallback") {
		show("Secs V-C/V-E: runtime correction rates", experiments.FallbackAnalysis())
	}
	if want("refresh") {
		show("Sec IV: refresh interval sweep (3-bit PCM)", experiments.RefreshSweep(nvram.PCM3))
		show("Sec IV: refresh interval sweep (ReRAM)", experiments.RefreshSweep(nvram.ReRAM))
	}
	if want("appendix") {
		show("Appendix: SDC rate (RS(72,64) @ 2e-4)", experiments.AppendixSDC())
	}
	if want("termb") {
		v4, err := experiments.ValidateTermB(4, 200_000, 11)
		if err != nil {
			return err
		}
		v3, err := experiments.ValidateTermB(3, 200_000, 13)
		if err != nil {
			return err
		}
		show("Appendix Term B: Monte-Carlo vs analytical",
			experiments.TermBTable([]experiments.TermBValidation{v4, v3}))
	}

	needPCM := want("10") || want("14") || want("15") || want("17") || want("18") || want("ablation")
	if needPCM {
		cmps, err := cache.get(nvram.PCM3)
		if err != nil {
			return err
		}
		if want("10") {
			show("Fig 10: dirty-PM cacheline occupancy", experiments.Fig10Table(cmps))
		}
		if want("14") {
			show("Fig 14: off-chip access breakdown", experiments.Fig14Table(cmps))
		}
		if want("15") {
			show("Fig 15: C factor per workload", experiments.Fig15Table(cmps))
		}
		if want("17") {
			show("Fig 17: normalized performance, PCM latencies", experiments.PerfTable(cmps, nvram.PCM3))
		}
		if want("18") {
			show("Fig 18: OMV LLC hit rate", experiments.Fig18Table(cmps))
		}
		if want("ablation") {
			show("Ablation: RS acceptance threshold", experiments.AblationThreshold())
			show("Ablation: EUR coalescing", experiments.AblationEUR(cmps))
			omv, err := experiments.AblationOMV(nvram.PCM3, po, "hashmap")
			if err != nil {
				return err
			}
			show("Ablation: OMV-in-LLC (hashmap)", omv)
			page, err := experiments.AblationPagePolicy(nvram.PCM3, po, "fft")
			if err != nil {
				return err
			}
			show("Ablation: row-buffer policy (fft)", page)
		}
	}
	if want("16") {
		cmps, err := cache.get(nvram.ReRAM)
		if err != nil {
			return err
		}
		show("Fig 16: normalized performance, ReRAM latencies", experiments.PerfTable(cmps, nvram.ReRAM))
	}
	return nil
}
