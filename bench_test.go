// Package chipkillpm_test holds the benchmark harness that regenerates
// every table and figure of the paper's evaluation (see DESIGN.md for the
// per-experiment index). Each benchmark produces the same series
// cmd/experiments prints and reports the headline value of its figure via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as a one-shot
// reproduction run.
//
// Simulation-backed figures (10, 14-18) use a reduced instruction budget
// per iteration; cmd/experiments runs the full-size campaign.
package chipkillpm_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"chipkillpm/internal/core"
	"chipkillpm/internal/engine"
	"chipkillpm/internal/experiments"
	"chipkillpm/internal/fleet"
	"chipkillpm/internal/nvram"
	"chipkillpm/internal/rank"
	"chipkillpm/internal/reliability"
	"chipkillpm/internal/sim"
	"chipkillpm/internal/stats"
	"chipkillpm/internal/trace"
)

// benchPerf is the per-iteration simulation budget for the heavy figures.
var benchPerf = experiments.PerfOptions{Instructions: 400_000, Warmup: 100_000, Seed: 7}

// --- Analytical figures ---

func BenchmarkFig01RBER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig1RBER(); len(tab.Rows) != 5 {
			b.Fatal("Fig 1 must cover 5 technologies")
		}
	}
	b.ReportMetric(nvram.PCM3.RBER(nvram.Week), "PCM3-RBER@1week")
}

func BenchmarkFig02StorageCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2StorageCost()
	}
	min := 10.0
	for _, sc := range reliability.Fig2Schemes(1e-3) {
		if sc.Feasible && sc.Cost < min {
			min = sc.Cost
		}
	}
	b.ReportMetric(100*min, "min-chipkill-cost-%@1e-3")
	b.ReportMetric(100*reliability.ProposalStorageCost(), "proposal-cost-%")
}

func BenchmarkFig03FlashECC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3FlashECC()
	}
	t, _ := reliability.FlashECCRequiredT(3e-3)
	b.ReportMetric(float64(t), "t@BER-3e-3")
}

func BenchmarkFig04CodewordSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4CodewordSweep(1e-3)
	}
	sc := reliability.VLEWSchemeCost(256, 1e-3)
	b.ReportMetric(100*sc.Cost, "cost-%@256B")
}

func BenchmarkFig05NaiveVLEW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5Bandwidth()
	}
	b.ReportMetric(100*reliability.NaiveVLEWReadOverhead(reliability.PaperVLEW, 2e-4, 72*8), "read-overhead-%@2e-4")
}

func BenchmarkFig07ErrorDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7ErrorDistribution(2e-4)
	}
	pByte := reliability.ByteErrorRate(2e-4, 8)
	b.ReportMetric(100*(1-reliability.BinomTail(64, 3, pByte)), "P[<=2-errors]-%")
}

func BenchmarkAppendixSDC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AppendixSDC()
	}
	m := reliability.RSMiscorrection{K: 64, R: 8, T: 2, RBER: 2e-4}
	b.ReportMetric(m.SDCRate()/1e-22, "SDC-rate-t2-x1e-22")
}

func BenchmarkStorageSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.StorageSummary()
	}
}

func BenchmarkScrubTimeModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ScrubAnalysis()
	}
	b.ReportMetric(reliability.ScrubTime(1e12, 48e9, 0.27), "scrub-s-per-TB")
}

func BenchmarkFallbackRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.FallbackAnalysis()
	}
	b.ReportMetric(100*reliability.ProposalFallbackRate(64, 8, 2, 2e-4), "fallback-%@2e-4")
}

// --- Functional experiments ---

func BenchmarkBootScrub(b *testing.B) {
	// Sec V-B on the functional model: scrub throughput for a rank that
	// sat a week without refresh.
	r, err := rank.New(rank.PaperConfig(2, 8, 1024, 1))
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := core.NewController(r, core.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	for blk := int64(0); blk < r.Blocks(); blk++ {
		ctrl.WriteBlockInitial(blk, buf)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r.InjectRetentionErrors(1e-3)
		b.StartTimer()
		rep := ctrl.BootScrub()
		if rep.Unrecoverable {
			b.Fatal("scrub failed")
		}
	}
	b.ReportMetric(float64(r.Blocks()*64), "bytes-scrubbed/op")
}

// BenchmarkChipkillRebuild times the boot scrub's chip rebuild: one
// populated rank, and each iteration fails one data chip (each in turn)
// and lets BootScrub scan the survivors and rebuild it in one pass.
// `make profile PROFILE_BENCH=ChipkillRebuild` profiles it.
func BenchmarkChipkillRebuild(b *testing.B) {
	r, _ := rank.New(rank.PaperConfig(2, 8, 1024, 1))
	ctrl, _ := core.NewController(r, core.DefaultConfig(), nil)
	buf := make([]byte, 64)
	rng := rand.New(rand.NewSource(2))
	for blk := int64(0); blk < r.Blocks(); blk++ {
		rng.Read(buf)
		ctrl.WriteBlockInitial(blk, buf)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip := i % r.ParityChipIndex()
		b.StopTimer()
		r.FailChip(chip)
		b.StartTimer()
		rep := ctrl.BootScrub()
		if rep.Unrecoverable || len(rep.ChipsRebuilt) != 1 || rep.ChipsRebuilt[0] != chip || rep.BlocksRebuilt != r.Blocks() {
			b.Fatalf("rebuild of chip %d failed: %v", chip, rep)
		}
	}
	b.ReportMetric(float64(r.Blocks()), "blocks/op")
}

// BenchmarkFleetRepairChip times Fleet.RepairChip on the recover_repair
// workload's fleet shape (3 ranks of 4 banks x 16 rows): each iteration
// fails one data chip of rank 0 and rebuilds it, the rank's first band
// by VLEW copy from its replica and the rest by erasure. `make profile
// PROFILE_BENCH=FleetRepairChip` profiles it.
func BenchmarkFleetRepairChip(b *testing.B) {
	f, err := fleet.New(fleet.Config{Ranks: 3, Banks: 4, RowsPerBank: 16, RowBytes: 1024, Seed: 1, ReplicatePerTick: -1})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, f.BlockBytes())
	rng := rand.New(rand.NewSource(2))
	for blk := int64(0); blk < f.Blocks(); blk++ {
		rng.Read(buf)
		if err := f.WriteBlockInitial(blk, buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.ReplicateBand(0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip := i % f.Rank(0).ParityChipIndex()
		b.StopTimer()
		f.Engine(0).Quiesce(func() { f.Rank(0).FailChip(chip) })
		b.StartTimer()
		if err := f.RepairChip(0, chip); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.Rank(0).Blocks()), "blocks/op")
}

// --- Runtime demand-path throughput: `go test -bench Engine -benchmem`,
// and what `make profile` profiles. The gated end-to-end numbers are the
// read_clean / write_random / write_rowlocal workloads of `go run ./bench`. ---

// newBenchEngine builds a populated 4-bank engine for the demand-path
// benchmarks.
func newBenchEngine(b *testing.B) *engine.Engine {
	b.Helper()
	r, err := rank.New(rank.PaperConfig(4, 8, 1024, 1))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(r, engine.Config{Core: core.DefaultConfig()})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, eng.BlockBytes())
	rng := rand.New(rand.NewSource(2))
	for blk := int64(0); blk < eng.Blocks(); blk++ {
		rng.Read(buf)
		if err := eng.WriteBlockInitial(blk, buf); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

func BenchmarkEngineCleanRead(b *testing.B) {
	eng := newBenchEngine(b)
	buf := make([]byte, eng.BlockBytes())
	rng := rand.New(rand.NewSource(3))
	blocks := eng.Blocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.ReadBlockInto(rng.Int63n(blocks), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDriftRead is BenchmarkEngineCleanRead on a rank aged to
// the paper's runtime RBER (2e-4): about one read in nine needs a
// one-symbol RS fix, which the lock-free path applies; a few take the
// locked decoder or the VLEW fallback.
func BenchmarkEngineDriftRead(b *testing.B) {
	eng := newBenchEngine(b)
	eng.Quiesce(func() { eng.Rank().InjectRetentionErrors(2e-4) })
	buf := make([]byte, eng.BlockBytes())
	rng := rand.New(rand.NewSource(3))
	blocks := eng.Blocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.ReadBlockInto(rng.Int63n(blocks), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ss := eng.SeqStats(); ss.FastReads != 0 {
		b.ReportMetric(float64(ss.FastCorrected)/float64(ss.FastReads), "fast-corrected/fast-read")
	}
}

// BenchmarkEngineCleanReadParallel runs BenchmarkEngineCleanRead's random
// clean reads from every GOMAXPROCS goroutine at once (`-cpu 1,2` shows
// read-path client scaling): each read is lock-free, so any slowdown per
// op at -2 is cache-line traffic the clients share.
func BenchmarkEngineCleanReadParallel(b *testing.B) {
	eng := newBenchEngine(b)
	blocks := eng.Blocks()
	var seeds atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, eng.BlockBytes())
		rng := rand.New(rand.NewSource(3 + seeds.Add(1)))
		for pb.Next() {
			if err := eng.ReadBlockInto(rng.Int63n(blocks), buf); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkFleetReadParallel is the fleet's version: random reads of a
// populated, unreplicated 3-rank fleet from every GOMAXPROCS goroutine,
// each paying the band lookup and band heat on top of the engine's
// lock-free read.
func BenchmarkFleetReadParallel(b *testing.B) {
	f, err := fleet.New(fleet.Config{Ranks: 3, Banks: 4, RowsPerBank: 16, RowBytes: 1024, Seed: 1, ReplicatePerTick: -1})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, f.BlockBytes())
	rng := rand.New(rand.NewSource(2))
	for blk := int64(0); blk < f.Blocks(); blk++ {
		rng.Read(buf)
		if err := f.WriteBlockInitial(blk, buf); err != nil {
			b.Fatal(err)
		}
	}
	blocks := f.Blocks()
	var seeds atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, f.BlockBytes())
		rng := rand.New(rand.NewSource(3 + seeds.Add(1)))
		for pb.Next() {
			if err := f.ReadBlockInto(rng.Int63n(blocks), buf); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkEngineCleanReadBatch(b *testing.B) {
	eng := newBenchEngine(b)
	const n = 64
	bb := eng.BlockBytes()
	slab := make([]byte, n*bb)
	ids := make([]int64, n)
	bufs := make([][]byte, n)
	errs := make([]error, n)
	for i := range bufs {
		bufs[i] = slab[i*bb : (i+1)*bb]
	}
	rng := rand.New(rand.NewSource(3))
	blocks := eng.Blocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ids {
			ids[j] = rng.Int63n(blocks)
		}
		if fails := eng.ReadBlocks(ids, bufs, errs); fails != 0 {
			b.Fatalf("%d batch reads failed", fails)
		}
	}
	b.ReportMetric(float64(n), "reads/op")
}

func BenchmarkEngineWrite(b *testing.B) {
	eng := newBenchEngine(b)
	buf := make([]byte, eng.BlockBytes())
	rng := rand.New(rand.NewSource(3))
	blocks := eng.Blocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Read(buf)
		if err := eng.WriteBlock(rng.Int63n(blocks), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulation figures (Figs 10, 14-18) ---

// runCampaign runs the three-pass comparison for a representative subset
// per iteration (the full campaign is cmd/experiments' job).
func runCampaign(b *testing.B, tech nvram.Tech) []sim.Comparison {
	b.Helper()
	names := []string{"echo", "btree", "hashmap", "barnes", "fft"}
	var out []sim.Comparison
	for _, n := range names {
		p, _ := trace.FindWorkload(n)
		opt := sim.DefaultOptions(tech, benchPerf.Seed)
		opt.Instructions = benchPerf.Instructions
		opt.Warmup = benchPerf.Warmup
		cmp, err := sim.Compare(p, opt)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, cmp)
	}
	return out
}

func BenchmarkFig10DirtyPM(b *testing.B) {
	var last []sim.Comparison
	for i := 0; i < b.N; i++ {
		last = runCampaign(b, nvram.PCM3)
		experiments.Fig10Table(last)
	}
	var m stats.Mean
	for _, c := range last {
		m.Add(c.Proposal.DirtyPMFrac)
	}
	b.ReportMetric(100*m.Value(), "avg-dirtyPM-%")
}

func BenchmarkFig14Breakdown(b *testing.B) {
	var last []sim.Comparison
	for i := 0; i < b.N; i++ {
		last = runCampaign(b, nvram.PCM3)
		experiments.Fig14Table(last)
	}
	var m stats.Mean
	for _, c := range last {
		m.Add(c.Baseline.PMReadFrac + c.Baseline.PMWriteFrac)
	}
	b.ReportMetric(100*m.Value(), "avg-PM-share-%")
}

func BenchmarkFig15CFactor(b *testing.B) {
	var last []sim.Comparison
	for i := 0; i < b.N; i++ {
		last = runCampaign(b, nvram.PCM3)
		experiments.Fig15Table(last)
	}
	var m stats.Mean
	for _, c := range last {
		m.Add(c.CPass.CFactor)
	}
	b.ReportMetric(m.Value(), "avg-C-factor")
}

func BenchmarkFig16PerfReRAM(b *testing.B) {
	var last []sim.Comparison
	for i := 0; i < b.N; i++ {
		last = runCampaign(b, nvram.ReRAM)
		experiments.PerfTable(last, nvram.ReRAM)
	}
	b.ReportMetric(geomeanNorm(last), "geomean-normalized")
}

func BenchmarkFig17PerfPCM(b *testing.B) {
	var last []sim.Comparison
	for i := 0; i < b.N; i++ {
		last = runCampaign(b, nvram.PCM3)
		experiments.PerfTable(last, nvram.PCM3)
	}
	b.ReportMetric(geomeanNorm(last), "geomean-normalized")
}

func BenchmarkFig18OMVHitRate(b *testing.B) {
	var last []sim.Comparison
	for i := 0; i < b.N; i++ {
		last = runCampaign(b, nvram.PCM3)
		experiments.Fig18Table(last)
	}
	var m stats.Mean
	for _, c := range last {
		m.Add(c.Proposal.OMVHitRate)
	}
	b.ReportMetric(100*m.Value(), "avg-OMV-hit-%")
}

func geomeanNorm(cmps []sim.Comparison) float64 {
	var ns []float64
	for _, c := range cmps {
		ns = append(ns, c.Normalized)
	}
	return stats.GeoMean(ns)
}

// --- Ablations (DESIGN.md Sec 5) ---

func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationThreshold()
	}
}

func BenchmarkAblationOMV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOMV(nvram.PCM3, benchPerf, "hashmap"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEUR(b *testing.B) {
	var last []sim.Comparison
	for i := 0; i < b.N; i++ {
		last = runCampaign(b, nvram.PCM3)
		experiments.AblationEUR(last)
	}
	_ = last
}

func BenchmarkAblationPagePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPagePolicy(nvram.PCM3, benchPerf, "fft"); err != nil {
			b.Fatal(err)
		}
	}
}
