package core

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"chipkillpm/internal/nvram"
	"chipkillpm/internal/rank"
	"chipkillpm/internal/rs"
)

// newScrubController builds a controller with an explicit scrub worker
// count over an identically seeded rank, so runs with different worker
// counts are byte-for-byte comparable.
func newScrubController(t testing.TB, seed int64, workers int) *Controller {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ScrubWorkers = workers
	c, err := NewController(smallRank(t, seed), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBootScrubWritesBackCorrectedParityBits pins the write-back contract
// for errors confined to a VLEW's code-bit region: decode corrects the
// parity slice in place and the scrub must persist it, leaving the stored
// code bytes equal to a fresh encode of the (untouched) data.
func TestBootScrubWritesBackCorrectedParityBits(t *testing.T) {
	c := newScrubController(t, 21, 1)
	fillRandom(t, c, 22)
	r := c.Rank()
	code := r.Config().VLEWCode
	r.CloseAllRows()

	// Flip bits only inside the code-bit region of a few VLEWs, via the
	// chip's code-maintenance primitive so data stays untouched.
	type site struct{ chip, bank, row, v int }
	sites := []site{{0, 0, 2, 0}, {3, 1, 5, 1}, {r.ParityChipIndex(), 0, 7, 3}}
	for _, s := range sites {
		delta := make([]byte, code.ParityBytes())
		delta[0] = 0x01
		delta[5] = 0x40
		delta[20] = 0x08
		r.Chip(s.chip).XORCode(s.bank, s.row, s.v, delta)
	}

	rep := c.BootScrub()
	if rep.Unrecoverable || len(rep.ChipsFailed) != 0 {
		t.Fatalf("scrub failed: %v", rep)
	}
	if want := int64(len(sites) * 3); rep.BitsCorrected != want {
		t.Fatalf("corrected %d bits, want %d", rep.BitsCorrected, want)
	}
	g := r.Config().Geometry
	data, vcode := make([]byte, g.VLEWDataBytes), make([]byte, g.VLEWCodeBytes)
	for _, s := range sites {
		r.Chip(s.chip).ReadVLEWInto(data, vcode, s.bank, s.row, s.v)
		if !code.CheckClean(data, vcode[:code.ParityBytes()]) {
			t.Fatalf("site %+v: stored VLEW still dirty after scrub", s)
		}
		if want := code.Encode(data); !bytes.Equal(vcode[:code.ParityBytes()], want) {
			t.Fatalf("site %+v: stored parity not re-encoded form\ngot  %x\nwant %x",
				s, vcode[:code.ParityBytes()], want)
		}
	}
}

// gridRank builds a drifted rank of 5 banks (a multiple of none of the
// worker counts gridWorkers tries, so the last units of a pass straggle
// differently for each) behind a controller with the given scrub worker
// count, and plants VLEWs beyond the BCH code (30 flipped data bits,
// t = 22) at the given sites. Identical arguments give byte-identical
// ranks.
func gridRank(t testing.TB, workers int, beyond []VLEWLoc) *Controller {
	t.Helper()
	r, err := rank.New(rank.PaperConfig(5, 4, 1024, 71))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ScrubWorkers = workers
	c, err := NewController(r, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, c, 72)
	r.CloseAllRows()
	r.InjectRetentionErrors(1e-3)
	vb := r.Config().Geometry.VLEWDataBytes
	for _, l := range beyond {
		for i := 0; i < 30; i++ {
			r.Chip(l.Chip).FlipDataBit(l.Bank, l.Row, l.V*vb+i*8, uint(i%8))
		}
	}
	return c
}

// gridWorkers are the worker counts the grid tests compare against one.
var gridWorkers = []int{2, 3, 4, 7}

// cellsOf snapshots every chip's cell array, rows closed first.
func cellsOf(r *rank.Rank) [][]byte {
	r.CloseAllRows()
	cells := make([][]byte, r.NumChips())
	for ci := range cells {
		cells[ci] = bytes.Clone(r.Chip(ci).CellArray())
	}
	return cells
}

// TestBootScrubParallelMatchesSerial runs identically seeded, drifted
// ranks through scrubs with 1, 2, 3, 4 and 7 workers and demands the same
// report, the same counters and the same cells on every chip: workers
// take (bank, row) units, and nothing a pass returns or writes depends on
// which worker took which. The cases cover a plain drift scrub, a dead
// chip rebuilt in the scan's own pass, a chip the scan convicts (beyond
// the code in several units) and rebuilds in a second pass, and two
// convicted chips, which is unrecoverable.
func TestBootScrubParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dead   int // chip failed before the scrub, -1 for none
		beyond []VLEWLoc
	}{
		{"drift", -1, nil},
		{"dead chip", 2, nil},
		{"convicted chip", -1, []VLEWLoc{{Chip: 5, Bank: 0, Row: 0, V: 1}, {Chip: 5, Bank: 3, Row: 2, V: 0}, {Chip: 5, Bank: 4, Row: 3, V: 3}}},
		{"two convicted chips", -1, []VLEWLoc{{Chip: 1, Bank: 2, Row: 1, V: 2}, {Chip: 8, Bank: 4, Row: 0, V: 0}, {Chip: 1, Bank: 0, Row: 3, V: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) (ScrubReport, Stats, [][]byte) {
				c := gridRank(t, workers, tc.beyond)
				if tc.dead >= 0 {
					c.Rank().FailChip(tc.dead)
				}
				rep := c.BootScrub()
				return rep, c.Stats(), cellsOf(c.Rank())
			}
			refRep, refStats, refCells := run(1)
			if refRep.BitsCorrected == 0 {
				t.Fatal("reference scrub corrected nothing")
			}
			if want := tc.dead >= 0 || len(tc.beyond) > 0; want != (len(refRep.ChipsFailed) > 0) {
				t.Fatalf("reference scrub: %v", refRep)
			}
			for _, workers := range gridWorkers {
				rep, stats, cells := run(workers)
				if !reflect.DeepEqual(rep, refRep) {
					t.Fatalf("workers=%d: report diverged\ngot  %+v\nwant %+v", workers, rep, refRep)
				}
				if stats != refStats {
					t.Fatalf("workers=%d: stats diverged\ngot  %+v\nwant %+v", workers, stats, refStats)
				}
				for ci := range cells {
					if !bytes.Equal(cells[ci], refCells[ci]) {
						t.Fatalf("workers=%d: chip %d cells diverged", workers, ci)
					}
				}
			}
		})
	}
}

// TestScrubRebuildGridMatchesSerial drives ScrubRebuild directly, scan
// only (every span, and a selection of them) and scan plus rebuild of a
// cleared chip, over a rank with VLEWs beyond the code in several
// (bank, row) units and chips. The whole beyond-code list, in (bank, row,
// chip, v) order, the totals and every chip's cells must not depend on
// the worker count.
func TestScrubRebuildGridMatchesSerial(t *testing.T) {
	beyond := []VLEWLoc{
		{Chip: 0, Bank: 0, Row: 0, V: 0},
		{Chip: 6, Bank: 0, Row: 0, V: 2},
		{Chip: 3, Bank: 1, Row: 3, V: 1},
		{Chip: 8, Bank: 4, Row: 2, V: 3},
		{Chip: 3, Bank: 4, Row: 2, V: 0},
		{Chip: 7, Bank: 2, Row: 1, V: 2},
	}
	want := func(g nvram.Geometry) []bool {
		w := make([]bool, g.Banks*g.RowsPerBank*g.VLEWsPerRow())
		for s := range w {
			w[s] = s%3 != 1
		}
		return w
	}
	for _, tc := range []struct {
		name   string
		ci     int
		subset bool
	}{
		{"scan", -1, false},
		{"scan selected spans", -1, true},
		{"scan and rebuild", 4, false},
		{"scan and rebuild selected spans", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type result struct {
				vlews, bits int64
				beyond      []VLEWLoc
				cells       [][]byte
			}
			run := func(workers int) result {
				c := gridRank(t, workers, beyond)
				r := c.Rank()
				r.CloseAllRows()
				var sel []bool
				if tc.subset {
					sel = want(r.Config().Geometry)
				}
				var solver *rs.ErasureSolver
				if tc.ci >= 0 {
					solver = c.ChipSolver(tc.ci)
					r.RepairChip(tc.ci)
				}
				var res result
				res.vlews, res.bits, res.beyond = ScrubRebuild(r, solver, tc.ci, sel, workers)
				res.cells = cellsOf(r)
				return res
			}
			ref := run(1)
			if ref.bits == 0 || len(ref.beyond) < 2 {
				t.Fatalf("reference pass: %d bits corrected, beyond the code %v", ref.bits, ref.beyond)
			}
			if !slices.IsSortedFunc(ref.beyond, func(a, b VLEWLoc) int {
				return cmp.Or(cmp.Compare(a.Bank, b.Bank), cmp.Compare(a.Row, b.Row), cmp.Compare(a.Chip, b.Chip), cmp.Compare(a.V, b.V))
			}) {
				t.Fatalf("beyond-code list not in (bank, row, chip, v) order: %v", ref.beyond)
			}
			for _, workers := range gridWorkers {
				got := run(workers)
				if got.vlews != ref.vlews || got.bits != ref.bits || !reflect.DeepEqual(got.beyond, ref.beyond) {
					t.Fatalf("workers=%d: got %d VLEWs, %d bits, beyond %v; want %d, %d, %v",
						workers, got.vlews, got.bits, got.beyond, ref.vlews, ref.bits, ref.beyond)
				}
				for ci := range got.cells {
					if !bytes.Equal(got.cells[ci], ref.cells[ci]) {
						t.Fatalf("workers=%d: chip %d cells diverged", workers, ci)
					}
				}
			}
		})
	}
}

// TestBootScrubParallelRecoversFailedChip exercises the rebuild phase with
// a multi-worker scan: the serial rebuild must still see every healthy
// chip's corrected state.
func TestBootScrubParallelRecoversFailedChip(t *testing.T) {
	c := newScrubController(t, 41, 4)
	ref := fillRandom(t, c, 42)
	c.Rank().FailChip(2)
	c.Rank().InjectRetentionErrors(1e-3)
	rep := c.BootScrub()
	if rep.Unrecoverable || len(rep.ChipsRebuilt) != 1 || rep.ChipsRebuilt[0] != 2 {
		t.Fatalf("scrub: %v", rep)
	}
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d wrong after parallel scrub + rebuild: err=%v", b, err)
		}
	}
}

// TestScrubWorkersValidation pins the config contract.
func TestScrubWorkersValidation(t *testing.T) {
	r, err := rank.New(rank.PaperConfig(1, 2, 512, 51))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ScrubWorkers = -1
	if _, err := NewController(r, cfg, nil); err == nil {
		t.Error("negative ScrubWorkers accepted")
	}
}

// rebuildPair builds two identically seeded, identically filled and
// identically drifted ranks (4 banks, so a 4-worker rebuild really fans
// out) and fails chip ci on the first only.
func rebuildPair(t testing.TB, ci, workers, rowsPerBank int) (failed, twin *Controller) {
	t.Helper()
	build := func() *Controller {
		r, err := rank.New(rank.PaperConfig(4, rowsPerBank, 1024, 61))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.ScrubWorkers = workers
		c, err := NewController(r, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		fillRandom(t, c, 62)
		r.InjectRetentionErrors(1e-3)
		return c
	}
	failed, twin = build(), build()
	failed.Rank().FailChip(ci)
	return failed, twin
}

// TestRebuildMatchesNeverFailedTwin is the rebuild kernel's oracle: after
// BootScrub, a rank that lost chip ci must hold exactly the cells — data
// and VLEW code regions, on every chip — of a twin that never lost it, for
// each of the nine chips, and the report must not depend on the worker
// count.
func TestRebuildMatchesNeverFailedTwin(t *testing.T) {
	for ci := 0; ci <= 8; ci++ {
		var ref ScrubReport
		for _, workers := range []int{1, 4} {
			failed, twin := rebuildPair(t, ci, workers, 4)
			rep := failed.BootScrub()
			if trep := twin.BootScrub(); trep.Unrecoverable || len(trep.ChipsFailed) != 0 {
				t.Fatalf("twin scrub: %v", trep)
			}
			if rep.Unrecoverable || len(rep.ChipsRebuilt) != 1 || rep.ChipsRebuilt[0] != ci ||
				rep.BlocksRebuilt != failed.Rank().Blocks() {
				t.Fatalf("chip %d workers %d: %v", ci, workers, rep)
			}
			failed.Rank().CloseAllRows()
			twin.Rank().CloseAllRows()
			for chip := 0; chip < failed.Rank().NumChips(); chip++ {
				got, want := failed.Rank().Chip(chip).CellArray(), twin.Rank().Chip(chip).CellArray()
				if !bytes.Equal(got, want) {
					t.Fatalf("failed chip %d, workers %d: chip %d cells differ from the never-failed twin", ci, workers, chip)
				}
			}
			if workers == 1 {
				ref = rep
			} else if rep.BlocksRebuilt != ref.BlocksRebuilt || rep.BusBlockFetches != ref.BusBlockFetches ||
				rep.BitsCorrected != ref.BitsCorrected {
				t.Fatalf("chip %d: report depends on worker count\n1: %v (%d fetches)\n%d: %v (%d fetches)",
					ci, ref, ref.BusBlockFetches, workers, rep, rep.BusBlockFetches)
			}
		}
	}
}

// TestChipSolverSharedAcrossControllers races every controller over one
// rank for every chip's solver: the cache must hand all of them the same
// solver per chip, and a solver for each chip must reconstruct that
// chip's symbols of a block.
func TestChipSolverSharedAcrossControllers(t *testing.T) {
	cs, err := NewControllers(smallRank(t, 81), DefaultConfig(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	nchips := cs[0].Rank().NumChips()
	got := make([][]*rs.ErasureSolver, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		got[i] = make([]*rs.ErasureSolver, nchips)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range got[i] {
				got[i][ci] = c.ChipSolver(ci)
			}
		}()
	}
	wg.Wait()
	code := cs[0].RS()
	data, check := make([]byte, code.K()), make([]byte, code.R())
	rand.New(rand.NewSource(82)).Read(data)
	code.EncodeInto(check, data)
	for ci := 0; ci < nchips; ci++ {
		for i := range cs {
			if got[i][ci] != got[0][ci] {
				t.Fatalf("chip %d: controller %d got another solver than controller 0", ci, i)
			}
		}
		d, c := bytes.Clone(data), bytes.Clone(check)
		if ci < cs[0].Rank().ParityChipIndex() {
			clear(d[ci*len(c) : (ci+1)*len(c)])
		} else {
			clear(c)
		}
		got[0][ci].Solve(d, c)
		if !bytes.Equal(d, data) || !bytes.Equal(c, check) {
			t.Fatalf("chip %d: the cached solver does not rebuild the chip's symbols", ci)
		}
	}
}
