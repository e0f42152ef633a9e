package experiments

import (
	"chipkillpm/internal/cache"
	"chipkillpm/internal/config"
	"chipkillpm/internal/memctrl"
	"chipkillpm/internal/nvram"
	"chipkillpm/internal/reliability"
	"chipkillpm/internal/sim"
	"chipkillpm/internal/stats"
	"chipkillpm/internal/trace"
)

func relMiscorrection(t int) reliability.RSMiscorrection {
	return reliability.RSMiscorrection{K: 64, R: 8, T: t, RBER: 2e-4}
}

func relFallback(t int) float64 {
	return reliability.ProposalFallbackRate(64, 8, t, 2e-4)
}

func proposalMode0() memctrl.Mode { return memctrl.ProposalMode(0) }

// PerfOptions sizes the simulation campaign.
type PerfOptions struct {
	Instructions int64
	Warmup       int64
	Seed         int64
}

// RunComparisons executes the paper's three-pass evaluation for every
// workload under one NVRAM technology (Figs 16/17, with Figs 10, 14, 15
// and 18 as by-products).
func RunComparisons(tech nvram.Tech, po PerfOptions) ([]sim.Comparison, error) {
	var out []sim.Comparison
	for _, p := range trace.Workloads() {
		opt := sim.DefaultOptions(tech, po.Seed)
		opt.Instructions = po.Instructions
		opt.Warmup = po.Warmup
		cmp, err := sim.Compare(p, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, cmp)
	}
	return out, nil
}

// PerfTable renders Fig 16 (ReRAM) or Fig 17 (PCM): performance of the
// proposal normalized to the bit-error-correction baseline.
func PerfTable(cmps []sim.Comparison, tech nvram.Tech) *stats.Table {
	tab := &stats.Table{Header: []string{"workload", "suite", "baseline IPC", "proposal IPC", "normalized"}}
	var norms []float64
	for _, c := range cmps {
		tab.AddRow(c.Workload, c.Class.String(),
			f("%.3f", c.Baseline.IPC), f("%.3f", c.Proposal.IPC), f("%.3f", c.Normalized))
		norms = append(norms, c.Normalized)
	}
	tab.AddRow("GEOMEAN ("+tech.Name+")", "", "", "", f("%.3f", stats.GeoMean(norms)))
	return tab
}

// Fig10Table renders the dirty-PM cacheline occupancy per workload.
func Fig10Table(cmps []sim.Comparison) *stats.Table {
	tab := &stats.Table{Header: []string{"workload", "dirty-PM cacheline fraction", "OMV fraction of LLC"}}
	var m stats.Mean
	for _, c := range cmps {
		tab.AddRow(c.Workload, f("%.2f%%", 100*c.Proposal.DirtyPMFrac), f("%.2f%%", 100*c.Proposal.OMVFrac))
		m.Add(c.Proposal.DirtyPMFrac)
	}
	tab.AddRow("AVERAGE", f("%.2f%%", 100*m.Value()), "")
	return tab
}

// Fig14Table renders the off-chip access breakdown per workload.
func Fig14Table(cmps []sim.Comparison) *stats.Table {
	tab := &stats.Table{Header: []string{"workload", "PM reads", "PM writes", "DRAM reads", "DRAM writes"}}
	for _, c := range cmps {
		b := c.Baseline
		tab.AddRow(c.Workload,
			f("%.0f%%", 100*b.PMReadFrac), f("%.0f%%", 100*b.PMWriteFrac),
			f("%.0f%%", 100*b.DRAMReadFrac), f("%.0f%%", 100*b.DRAMWriteFrac))
	}
	return tab
}

// Fig15Table renders the measured C factor per workload.
func Fig15Table(cmps []sim.Comparison) *stats.Table {
	tab := &stats.Table{Header: []string{"workload", "C (VLEW code writes / PM writes)", "tWR inflation"}}
	for _, c := range cmps {
		cf := c.CPass.CFactor
		tab.AddRow(c.Workload, f("%.3f", cf), f("%.2fx + 20ns", 1+(33.0/8.0)*cf))
	}
	return tab
}

// Fig18Table renders the OMV LLC hit rate per workload.
func Fig18Table(cmps []sim.Comparison) *stats.Table {
	tab := &stats.Table{Header: []string{"workload", "OMV served from LLC", "OMV fetches from memory"}}
	var m stats.Mean
	for _, c := range cmps {
		tab.AddRow(c.Workload, f("%.1f%%", 100*c.Proposal.OMVHitRate),
			f("%d", c.Proposal.Mem.OMVFetches))
		m.Add(c.Proposal.OMVHitRate)
	}
	tab.AddRow("AVERAGE", f("%.1f%%", 100*m.Value()), "")
	return tab
}

// TableIConfig renders the simulated system parameters (Table I).
func TableIConfig() *stats.Table {
	s := config.TableI()
	tab := &stats.Table{Header: []string{"parameter", "value"}}
	tab.AddRow("cores", f("%d x %.0f GHz, %d-issue OOO, %d-entry ROB",
		s.CPU.Cores, s.CPU.FreqGHz, s.CPU.IssueWidth, s.CPU.ROBEntries))
	tab.AddRow("L1", f("%d-way, %d KB, %d cycle", s.L1.Ways, s.L1.SizeBytes>>10, s.L1.LatencyCycle))
	tab.AddRow("LLC", f("%d-way, %d MB, %d cycles", s.LLC.Ways, s.LLC.SizeBytes>>20, s.LLC.LatencyCycle))
	tab.AddRow("controller", f("%d read / %d write buffer, closed page (%.0f ns), FR-FCFS",
		s.Controller.ReadQueue, s.Controller.WriteQueue, s.Controller.ClosePageNS))
	tab.AddRow("memory", f("one %.0f MT/s channel, 1 DRAM + 1 PM rank, %d banks/rank",
		s.DRAM.BusMTps, s.BanksPerRank))
	return tab
}

// AblationOMV compares the proposal's write path with and without the
// OMV-preserving LLC: without it, every persistent-memory write fetches
// its old value from memory (the 200% write overhead of Fig 5).
func AblationOMV(tech nvram.Tech, po PerfOptions, workload string) (*stats.Table, error) {
	p, ok := trace.FindWorkload(workload)
	if !ok {
		p = trace.Workloads()[0]
	}
	tab := &stats.Table{Header: []string{"configuration", "IPC", "OMV fetches", "PM reads"}}

	run := func(label string, omv bool) error {
		opt := sim.DefaultOptions(tech, po.Seed)
		opt.Instructions = po.Instructions
		opt.Warmup = po.Warmup
		opt.Mode = proposalMode0()
		if omv {
			opt.OMV = cache.OMVPreserve
		} else {
			opt.OMV = cache.OMVAlwaysFetch
		}
		res, err := sim.Run(p, opt)
		if err != nil {
			return err
		}
		tab.AddRow(label, f("%.3f", res.IPC), f("%d", res.Mem.OMVFetches), f("%d", res.Mem.PMReads))
		return nil
	}
	if err := run("OMV preserved in LLC (proposal)", true); err != nil {
		return nil, err
	}
	if err := run("no OMV cache (fetch old value from memory)", false); err != nil {
		return nil, err
	}
	return tab, nil
}

// AblationPagePolicy compares the closed-page policy against an
// effectively open-page one for a row-local workload.
func AblationPagePolicy(tech nvram.Tech, po PerfOptions, workload string) (*stats.Table, error) {
	p, ok := trace.FindWorkload(workload)
	if !ok {
		p = trace.Workloads()[0]
	}
	tab := &stats.Table{Header: []string{"row policy", "baseline IPC", "row hits", "row misses"}}
	for _, pol := range []struct {
		label   string
		closeNS float64
	}{
		{"closed page (50 ns)", 50},
		{"open page (100 us)", 100_000},
	} {
		opt := sim.DefaultOptions(tech, po.Seed)
		opt.Instructions = po.Instructions
		opt.Warmup = po.Warmup
		opt.System.Controller.ClosePageNS = pol.closeNS
		res, err := sim.Run(p, opt)
		if err != nil {
			return nil, err
		}
		tab.AddRow(pol.label, f("%.3f", res.IPC), f("%d", res.Mem.RowHits), f("%d", res.Mem.RowMisses))
	}
	return tab, nil
}

// AblationEUR quantifies the EUR's coalescing: without it, every PM write
// updates VLEW code bits immediately (C = 1 by construction), so the tWR
// inflation is maximal. The table contrasts measured-C inflation against
// the EUR-less worst case per workload.
func AblationEUR(cmps []sim.Comparison) *stats.Table {
	tab := &stats.Table{Header: []string{"workload", "C with EUR", "tWR with EUR", "tWR without EUR (C=1)"}}
	for _, c := range cmps {
		cf := c.CPass.CFactor
		tab.AddRow(c.Workload, f("%.3f", cf),
			f("%.2fx", 1+(33.0/8.0)*cf), f("%.2fx", 1+33.0/8.0))
	}
	return tab
}
