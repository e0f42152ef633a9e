//go:build !race

package fleet

import (
	"runtime/debug"
	"testing"
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
// bands (4 banks x 8 vs 16 rows) allocates exactly as often. The bank
// count stays fixed because the scan and rebuild fan out to up to one
// worker per bank, each with its own buffers, on hosts with the CPUs.
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
