package core

import (
	"bytes"
	"testing"

	"chipkillpm/internal/rank"
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

// TestBootScrubParallelMatchesSerial runs identically seeded ranks through
// scrubs with 1, 3 and 8 workers and demands identical reports and chip
// stats: the (chip, bank) sharding makes the scan order-insensitive.
func TestBootScrubParallelMatchesSerial(t *testing.T) {
	run := func(workers int) (ScrubReport, Stats, []byte) {
		c := newScrubController(t, 31, workers)
		fillRandom(t, c, 32)
		c.Rank().InjectRetentionErrors(1e-3)
		rep := c.BootScrub()
		var contents []byte
		data := make([]byte, c.Rank().Config().BlockBytes())
		check := make([]byte, c.Rank().Config().ChipAccessBytes)
		for b := int64(0); b < c.Rank().Blocks(); b++ {
			c.Rank().ReadBlockRawInto(b, data, check)
			contents = append(contents, data...)
			contents = append(contents, check...)
		}
		return rep, c.Stats(), contents
	}
	refRep, refStats, refContents := run(1)
	if refRep.BitsCorrected == 0 {
		t.Fatal("reference scrub corrected nothing")
	}
	for _, workers := range []int{3, 8} {
		rep, stats, contents := run(workers)
		if rep.VLEWsScrubbed != refRep.VLEWsScrubbed ||
			rep.BitsCorrected != refRep.BitsCorrected ||
			rep.BusBlockFetches != refRep.BusBlockFetches ||
			rep.BlocksRebuilt != refRep.BlocksRebuilt ||
			rep.Unrecoverable != refRep.Unrecoverable ||
			len(rep.ChipsFailed) != len(refRep.ChipsFailed) {
			t.Fatalf("workers=%d: report diverged\ngot  %v\nwant %v", workers, rep, refRep)
		}
		if stats != refStats {
			t.Fatalf("workers=%d: stats diverged\ngot  %+v\nwant %+v", workers, stats, refStats)
		}
		if !bytes.Equal(contents, refContents) {
			t.Fatalf("workers=%d: scrubbed memory contents diverged", workers)
		}
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
