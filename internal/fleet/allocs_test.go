//go:build !race

package fleet

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"chipkillpm/internal/rs"
)

// The zero-allocation pins. Not built under -race: race instrumentation
// allocates and makes sync.Pool drop items.

// TestFleetDemandAllocsZero pins the fleet's steady-state demand paths at
// zero allocations per operation: a primary read, a write to an
// unreplicated band, and a write-through to a replicated band (whose
// replica leg is the engine's raw WriteBlockInitial).
func TestFleetDemandAllocsZero(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	if err := f.ReplicateBand(0); err != nil {
		t.Fatal(err)
	}
	if !f.BandReplicated(0) || f.BandReplicated(f.BandBlocks()) {
		t.Fatal("want band 0 replicated and band 1 not")
	}
	buf := make([]byte, f.BlockBytes())
	pattern(9999, buf)
	var i int64
	for _, tc := range []struct {
		name string
		op   func(block int64) error
		base int64 // first block of the band the case runs in
	}{
		{"primary ReadBlockInto", func(b int64) error { return f.ReadBlockInto(b, buf) }, f.BandBlocks()},
		{"unreplicated WriteBlock", func(b int64) error { return f.WriteBlock(b, buf) }, f.BandBlocks()},
		{"replicated write-through WriteBlock", func(b int64) error { return f.WriteBlock(b, buf) }, 0},
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			if err := tc.op(tc.base + i%f.BandBlocks()); err != nil {
				t.Fatal(err)
			}
			i += 7
		}); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}

// TestRepairChipAllocsIndependentOfRankSize pins the repair's
// allocations to its workers and its fixed set-up: a rank of twice the
// bands (4 banks x 8 vs 16 rows) allocates exactly as often. Each of the
// scan and rebuild's workers has its own buffers, allocated once however
// many (bank, row) units it takes.
func TestRepairChipAllocsIndependentOfRankSize(t *testing.T) {
	// A collection empties the decoders' scratch pools, whose refills
	// would be counted against whichever rank size it hit.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var allocs [2]float64
	for i, rows := range []int{8, 16} {
		cfg := testConfig()
		cfg.Banks, cfg.RowsPerBank = 4, rows
		f := repairFleet(t, cfg)
		allocs[i] = testing.AllocsPerRun(5, func() {
			f.Engine(0).Quiesce(func() { f.Rank(0).FailChip(2) })
			if err := f.RepairChip(0, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("RepairChip allocates %.0f times at 8 rows, %.0f at 16: allocations grow with the rank", allocs[0], allocs[1])
	}
}

// TestChipSolverBuiltOnce pins the rank's erasure-solver cache: a boot
// scrub that rebuilds each data chip in turn and two repairs of one chip
// all take the same solver for a chip, and the second repair builds no
// solver table. The heap profile, at one record per allocation while the
// test runs, names every allocation made inside rs.NewErasureSolver.
func TestChipSolverBuiltOnce(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	f := repairFleet(t, testConfig())
	e, r := f.Engine(0), f.Rank(0)
	solvers := make([]*rs.ErasureSolver, r.NumChips())
	for ci := 0; ci < r.Config().DataChips; ci++ {
		e.Quiesce(func() { r.FailChip(ci) })
		if rep := e.BootScrub(); rep.Unrecoverable || len(rep.ChipsRebuilt) != 1 || rep.ChipsRebuilt[0] != ci {
			t.Fatalf("chip %d: boot scrub %v", ci, rep)
		}
		solvers[ci] = e.ChipSolver(ci)
	}
	// The parity chip's solver is built here, on first use: the profile
	// must see that build, or its silence below would prove nothing.
	before := solverAllocs(t)
	solvers[r.ParityChipIndex()] = e.ChipSolver(r.ParityChipIndex())
	if solverAllocs(t) == before {
		t.Fatal("the heap profile saw no allocation in the parity chip's first solver build")
	}
	const chip = 3
	repair := func() {
		e.Quiesce(func() { r.FailChip(chip) })
		if err := f.RepairChip(0, chip); err != nil {
			t.Fatal(err)
		}
	}
	repair()
	before = solverAllocs(t)
	if allocs := testing.AllocsPerRun(1, repair); allocs == 0 {
		t.Fatal("a repair allocated nothing: the measurement is broken")
	}
	if n := solverAllocs(t) - before; n != 0 {
		t.Errorf("the second repair of chip %d made %d allocations inside the erasure solver's build", chip, n)
	}
	for ci, s := range solvers {
		if got := e.ChipSolver(ci); got != s {
			t.Errorf("chip %d: ChipSolver returned %p, earlier %p: the solver was built again", ci, got, s)
		}
	}
}

// solverAllocs counts the allocations the heap profile attributes to
// rs.NewErasureSolver so far. A record is published a collection or two
// after its allocation, so it collects first.
func solverAllocs(t *testing.T) int64 {
	t.Helper()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatal("heap profile grew while being read")
	}
	var allocs int64
	for _, rec := range recs[:n] {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			fr, more := frames.Next()
			if strings.HasSuffix(fr.Function, "rs.(*Code).NewErasureSolver") {
				allocs += rec.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return allocs
}
