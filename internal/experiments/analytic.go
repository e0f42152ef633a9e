// Package experiments regenerates every table and figure of the paper's
// evaluation: the analytical figures (1-5, 7, the appendix, and the
// storage-cost and boot-scrub discussion) directly from
// internal/reliability and internal/nvram, the hardware costs from
// internal/core's constants, the appendix's Term B against the real RS
// decoder, and the performance figures (10, 14-18) from internal/sim.
// Fault injection on the functional model is internal/inject's
// (cmd/faultcampaign).
//
// Each experiment returns a stats.Table whose rows mirror the series the
// paper plots, so cmd/experiments can print them and EXPERIMENTS.md can
// record paper-vs-measured values.
package experiments

import (
	"fmt"

	"chipkillpm/internal/bch"
	"chipkillpm/internal/core"
	"chipkillpm/internal/nvram"
	"chipkillpm/internal/reliability"
	"chipkillpm/internal/stats"
)

func f(format string, v ...any) string { return fmt.Sprintf(format, v...) }

// Fig1RBER regenerates Figure 1: RBER of the modelled memory technologies
// at increasing times since refresh.
func Fig1RBER() *stats.Table {
	times := []float64{1, 60, nvram.Hour, nvram.Day, nvram.Week, nvram.Month, nvram.Year}
	tab := &stats.Table{Header: []string{"technology"}}
	for _, s := range times {
		tab.Header = append(tab.Header, nvram.FormatInterval(s))
	}
	for _, tech := range nvram.Fig1Technologies() {
		row := []string{tech.Name}
		for _, s := range times {
			row = append(row, f("%.1e", tech.RBER(s)))
		}
		tab.AddRow(row...)
	}
	return tab
}

// Fig2StorageCost regenerates Figure 2: the total storage cost of
// extending DRAM chipkill-correct schemes to NVRAM RBERs.
func Fig2StorageCost() *stats.Table {
	rbers := []float64{1e-5, 1e-4, 1e-3}
	tab := &stats.Table{Header: []string{"scheme", "RBER 1e-5", "RBER 1e-4", "RBER 1e-3"}}
	type builder func(float64) reliability.SchemeCost
	schemes := []builder{
		func(r float64) reliability.SchemeCost { return reliability.XEDStyleCost(8, r) },
		func(r float64) reliability.SchemeCost { return reliability.XEDStyleCost(16, r) },
		func(r float64) reliability.SchemeCost { return reliability.DUOStyleCost(64, r) },
		func(r float64) reliability.SchemeCost { return reliability.ChipkillViaStrongerBCHCost(64, 64, r) },
	}
	for _, build := range schemes {
		var row []string
		for i, r := range rbers {
			sc := build(r)
			if i == 0 {
				row = append(row, sc.Scheme)
			}
			if sc.Feasible {
				row = append(row, f("%.0f%% (t=%d)", 100*sc.Cost, sc.T))
			} else {
				row = append(row, "infeasible")
			}
		}
		tab.AddRow(row...)
	}
	proposal := reliability.ProposalStorageCost()
	tab.AddRow("proposal (VLEW 256B + parity chip)", "-", "-", f("%.0f%%", 100*proposal))
	return tab
}

// Fig3FlashECC regenerates Figure 3's point: the BCH strength 512B-data
// Flash-style VLEWs need across BERs, landing in the commercial 12..41-EC
// band.
func Fig3FlashECC() *stats.Table {
	tab := &stats.Table{Header: []string{"BER", "required t (512B words)", "code bits", "storage cost"}}
	for _, ber := range []float64{1e-5, 1e-4, 5e-4, 1e-3, 2e-3, 3e-3} {
		t, err := reliability.FlashECCRequiredT(ber)
		if err != nil {
			tab.AddRow(f("%.0e", ber), "infeasible", "-", "-")
			continue
		}
		bits := bch.ParityBitsEstimate(512*8, t)
		tab.AddRow(f("%.0e", ber), f("%d", t), f("%d", bits),
			f("%.1f%%", 100*float64(bits)/float64(512*8)))
	}
	return tab
}

// Fig4CodewordSweep regenerates Figure 4: total storage cost (bit-error
// code plus parity chip) against ECC word length at RBER 1e-3.
func Fig4CodewordSweep(rber float64) *stats.Table {
	tab := &stats.Table{Header: []string{"word data", "required t", "code bytes", "bit-EC cost", "total cost"}}
	for _, sc := range reliability.Fig4Sweep(rber, []int{64, 128, 256, 512, 1024, 2048, 4096}) {
		if !sc.Feasible {
			tab.AddRow(f("%dB", sc.WordBytes), "infeasible", "-", "-", "-")
			continue
		}
		codeBytes := (bch.ParityBitsEstimate(sc.WordBytes*8, sc.T) + 7) / 8
		bitCost := float64(codeBytes) / float64(sc.WordBytes)
		tab.AddRow(f("%dB", sc.WordBytes), f("%d", sc.T), f("%d", codeBytes),
			f("%.1f%%", 100*bitCost), f("%.1f%%", 100*sc.Cost))
	}
	return tab
}

// Fig5Bandwidth regenerates Figure 5: the read and write bandwidth
// overheads of protecting persistent memory with VLEWs alone.
func Fig5Bandwidth() *stats.Table {
	g := reliability.PaperVLEW
	tab := &stats.Table{Header: []string{"scenario", "overhead"}}
	tab.AddRow("read, naive VLEW @ RBER 7e-5",
		f("%.0f%%", 100*reliability.NaiveVLEWReadOverhead(g, 7e-5, 72*8)))
	tab.AddRow("read, naive VLEW @ RBER 2e-4",
		f("%.0f%%", 100*reliability.NaiveVLEWReadOverhead(g, 2e-4, 72*8)))
	tab.AddRow("write, processor-side code update",
		f("%.0f%%", 100*reliability.NaiveVLEWWriteOverhead(g, false)))
	tab.AddRow("write, in-chip encoder (old-data fetch + send-back)",
		f("%.0f%%", 100*reliability.NaiveVLEWWriteOverhead(g, true)))
	tab.AddRow("read, proposal (threshold-2 RS, VLEW fallback) @ 2e-4",
		f("%.2f%%", 100*reliability.ProposalReadOverhead(g, 64, 8, 2, 2e-4)))
	tab.AddRow("write, proposal (OMV in LLC + bitwise-sum write)", "~0%")
	return tab
}

// Fig7ErrorDistribution regenerates Figure 7: the distribution of the
// number of byte errors in a 64B request at RBER 2e-4.
func Fig7ErrorDistribution(rber float64) *stats.Table {
	pByte := reliability.ByteErrorRate(rber, 8)
	tab := &stats.Table{Header: []string{"errors", "P[X = k]", "P[X >= k]"}}
	for k := 0; k <= 6; k++ {
		tab.AddRow(f("%d", k),
			f("%.3e", reliability.BinomPMF(64, k, pByte)),
			f("%.3e", reliability.BinomTail(64, k, pByte)))
	}
	return tab
}

// StorageSummary regenerates the storage-cost numbers of Secs III-A and
// V-A: 14-EC BCH at 28%, the 78-EC strengthening at 152%, and the
// proposal's 27%.
func StorageSummary() *stats.Table {
	tab := &stats.Table{Header: []string{"scheme", "strength", "storage cost"}}
	bo := reliability.BitOnlyBCHCost(64, 1e-3)
	tab.AddRow(bo.Scheme, f("%d-bit EC", bo.T), f("%.1f%%", 100*bo.Cost))
	ck := reliability.ChipkillViaStrongerBCHCost(64, 64, 1e-3)
	tab.AddRow(ck.Scheme, f("%d-bit EC", ck.T), f("%.0f%%", 100*ck.Cost))
	vl := reliability.VLEWSchemeCost(256, 1e-3)
	tab.AddRow(vl.Scheme, f("%d-bit EC + RS(72,64)", vl.T), f("%.1f%%", 100*vl.Cost))
	tab.AddRow("paper headline (33/256 + 1/8*(1+33/256))", "-",
		f("%.1f%%", 100*reliability.ProposalStorageCost()))
	return tab
}

// AppendixSDC regenerates the appendix's miscorrection calculation.
func AppendixSDC() *stats.Table {
	tab := &stats.Table{Header: []string{"t", "nth", "Term A", "Term B", "SDC rate", "vs 1e-17 target"}}
	for _, t := range []int{4, 3, 2, 1} {
		m := reliability.RSMiscorrection{K: 64, R: 8, T: t, RBER: 2e-4}
		sdc := m.SDCRate()
		tab.AddRow(f("%d", t), f("%d", m.NTh()),
			f("%.2e", m.TermA()), f("%.2e", m.TermB()), f("%.2e", sdc),
			f("%.1e x", sdc/reliability.TargetSDC))
	}
	return tab
}

// FallbackAnalysis regenerates Sec V-C/V-E rates: the fraction of reads
// needing multi-error RS correction, the VLEW fallback rate, and the
// resulting read bandwidth overhead.
func FallbackAnalysis() *stats.Table {
	g := reliability.PaperVLEW
	tab := &stats.Table{Header: []string{"RBER", "multi-error RS", "VLEW fallback", "read bw overhead"}}
	for _, rber := range []float64{7e-5, 2e-4} {
		tab.AddRow(f("%.0e", rber),
			f("1/%.0f", 1/reliability.MultiErrorRSRate(64, 8, rber)),
			f("%.4f%%", 100*reliability.ProposalFallbackRate(64, 8, 2, rber)),
			f("%.2f%%", 100*reliability.ProposalReadOverhead(g, 64, 8, 2, rber)))
	}
	return tab
}

// Fig13HWCost regenerates the Sec V-E hardware cost summary.
func Fig13HWCost() *stats.Table {
	tab := &stats.Table{Header: []string{"unit", "area (mm^2)", "latency (ns)"}}
	tab.AddRow("in-chip 22-EC BCH encoder (Fig 13)", f("%.2f", core.BCHEncoderAreaMM2), f("%.1f", core.BCHEncoderLatencyNS))
	tab.AddRow("controller RS decoder (multi-byte)", f("%.3f", core.RSDecoderAreaMM2), f("%.0f", core.RSDecoderLatencyNS))
	tab.AddRow("controller 22-EC BCH decoder", f("%.2f", core.BCHDecoderAreaMM2), f("%.0f", core.BCHDecoderLatencyNS))
	tab.AddRow("added tWR (encoder + internal RMW)", "-", f("%.0f", core.InternalReadModifyWriteNS))
	return tab
}

// ScrubAnalysis regenerates Sec V-B's boot-scrub time estimate.
func ScrubAnalysis() *stats.Table {
	tab := &stats.Table{Header: []string{"memory per channel", "bus", "scrub time"}}
	// 3 GHz DDR bus, 8 B wide: 48 GB/s peak.
	bus := 3e9 * 2 * 8.0
	for _, tb := range []float64{0.25e12, 0.5e12, 1e12} {
		secs := reliability.ScrubTime(tb, bus, 0.27)
		tab.AddRow(f("%.2f TB", tb/1e12), "3 GHz x 8B DDR", f("%.1f s", secs))
	}
	return tab
}

// RefreshSweep regenerates the Sec IV refresh-policy discussion: the
// runtime RBER a refresh interval implies for each technology, and the
// resulting opportunistic-correction and VLEW-fallback rates.
func RefreshSweep(tech nvram.Tech) *stats.Table {
	tab := &stats.Table{Header: []string{"refresh interval", "runtime RBER",
		"accesses w/ errors", "multi-error RS", "VLEW fallback", "read bw overhead"}}
	for _, secs := range []float64{1, 60, nvram.Hour, nvram.Day, nvram.Week} {
		rber := tech.RBER(secs)
		tab.AddRow(nvram.FormatInterval(secs), f("%.1e", rber),
			f("%.2f%%", 100*reliability.FracAccessesWithErrors(72*8, rber)),
			f("%.2e", reliability.MultiErrorRSRate(64, 8, rber)),
			f("%.2e", reliability.ProposalFallbackRate(64, 8, 2, rber)),
			f("%.3f%%", 100*reliability.ProposalReadOverhead(reliability.PaperVLEW, 64, 8, 2, rber)))
	}
	return tab
}
