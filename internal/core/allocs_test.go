//go:build !race

package core

import (
	"bytes"
	"testing"
)

// TestDemandAllocsZero pins the bodies the engine's locked read and write
// paths run under the shard mutex at zero allocations per operation: a
// clean ReadBlockInto, WriteBlock with its old value fetched from memory
// (OMV miss), and a ReadBlockInto that pays a single-symbol RS
// correction. Not built under -race: race instrumentation allocates and
// makes sync.Pool drop the decoder's scratch.
func TestDemandAllocsZero(t *testing.T) {
	c := newTestController(t, 91, nil)
	fillRandom(t, c, 92)
	bb := c.Rank().Config().BlockBytes()
	blocks := c.Rank().Blocks()
	dst := make([]byte, bb)
	var b int64
	if allocs := testing.AllocsPerRun(500, func() {
		if err := c.ReadBlockInto(b, dst); err != nil {
			t.Fatal(err)
		}
		b = (b + 7) % blocks
	}); allocs != 0 {
		t.Fatalf("ReadBlockInto allocates %.1f objects/op, want 0", allocs)
	}
	if st := c.Stats(); st.Reads == 0 || st.ReadsClean != st.Reads {
		t.Fatalf("clean-read pin took the wrong path: %+v", st)
	}

	buf := make([]byte, bb)
	if allocs := testing.AllocsPerRun(500, func() {
		buf[0]++
		if err := c.WriteBlock(b, buf); err != nil {
			t.Fatal(err)
		}
		b = (b + 7) % blocks
	}); allocs != 0 {
		t.Fatalf("WriteBlock (OMV miss) allocates %.1f objects/op, want 0", allocs)
	}
	if st := c.Stats(); st.OMVMisses == 0 {
		t.Fatal("write pin never fetched its old value from memory")
	}

	const bc = 5
	loc := c.Rank().Locate(bc)
	c.Rank().Chip(0).FlipDataBit(loc.Bank, loc.Row, loc.Col, 3)
	before := c.Stats().ReadsRSCorrected
	if allocs := testing.AllocsPerRun(500, func() {
		if err := c.ReadBlockInto(bc, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("RS-corrected ReadBlockInto allocates %.1f objects/op, want 0", allocs)
	}
	if c.Stats().ReadsRSCorrected == before {
		t.Fatal("corrected-read pin never took the RS correction path")
	}
}

// TestRebuildAllocatesPerWorkerNotPerBlock pins the kernel's memory
// behaviour: buffers belong to workers, so rebuilding a rank four times the
// size allocates the same number of times (the block-at-a-time rebuild it
// replaced allocated several times per block). It drives ScrubRebuild
// directly, scan and rebuild in one pass. Not built under -race: the
// scan's BCH decoder draws on a sync.Pool, which race builds empty at
// random.
func TestRebuildAllocatesPerWorkerNotPerBlock(t *testing.T) {
	for _, ci := range []int{2, 8} {
		var allocs [2]float64
		for i, rows := range []int{4, 16} {
			c, twin := rebuildPair(t, ci, 4, rows)
			c.BootScrub() // builds the cached solver; leaves the rank clean
			r := c.Rank()
			allocs[i] = testing.AllocsPerRun(3, func() {
				r.FailChip(ci)
				r.RepairChip(ci)
				ScrubRebuild(r, c.chipSolver(ci), ci, nil, 4)
			})
			twin.BootScrub()
			r.CloseAllRows()
			twin.Rank().CloseAllRows()
			if !bytes.Equal(r.Chip(ci).CellArray(), twin.Rank().Chip(ci).CellArray()) {
				t.Fatalf("chip %d at %d rows: rebuilt cells differ from the never-failed twin", ci, rows)
			}
		}
		if allocs[1] > allocs[0]+8 {
			t.Errorf("chip %d: %.0f allocations at 2048 blocks, %.0f at 8192: rebuild allocates per block",
				ci, allocs[0], allocs[1])
		}
	}
}
