package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"chipkillpm/internal/rank"
)

func newStartGap(t *testing.T, seed, interval int64) (*StartGap, *Controller) {
	t.Helper()
	c := newTestController(t, seed, nil)
	sg, err := NewStartGap(c, interval)
	if err != nil {
		t.Fatal(err)
	}
	return sg, c
}

func TestStartGapValidation(t *testing.T) {
	c := newTestController(t, 70, nil)
	if _, err := NewStartGap(c, 0); err == nil {
		t.Error("zero interval accepted")
	}
	sg, err := NewStartGap(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Blocks() != c.Rank().Blocks()-1 {
		t.Errorf("logical capacity %d, want physical-1", sg.Blocks())
	}
}

func TestStartGapMappingBijective(t *testing.T) {
	sg, _ := newStartGap(t, 71, 1)
	check := func() {
		seen := map[int64]bool{}
		for l := int64(0); l < sg.Blocks(); l++ {
			p := sg.Physical(l)
			if p < 0 || p > sg.Blocks() {
				t.Fatalf("physical %d out of range", p)
			}
			if p == sg.gap {
				t.Fatalf("logical %d mapped onto the gap", l)
			}
			if seen[p] {
				t.Fatalf("collision at physical %d", p)
			}
			seen[p] = true
		}
	}
	check()
	// Rotate the gap through several full revolutions.
	data := make([]byte, 64)
	for i := 0; i < int(sg.Blocks()+1)*2+7; i++ {
		if err := sg.Write(int64(i)%sg.Blocks(), data); err != nil {
			t.Fatal(err)
		}
		check()
	}
}

// TestStartGapPreservesDataAcrossMoves writes every logical block, then
// keeps writing (forcing many gap moves) and verifies all contents; then
// it does the same again after a chip failure has moved the rank to the
// striped degraded layout, where gap moves must take the striped write.
func TestStartGapPreservesDataAcrossMoves(t *testing.T) {
	sg, c := newStartGap(t, 72, 5)
	rng := rand.New(rand.NewSource(73))
	ref := map[int64][]byte{}
	write := func(l int64) {
		data := make([]byte, 64)
		rng.Read(data)
		if err := sg.Write(l, data); err != nil {
			t.Fatal(err)
		}
		ref[l] = data
	}
	churn := func() {
		moves := sg.GapMoves()
		for i := 0; i < 500; i++ {
			write(rng.Int63n(sg.Blocks()))
		}
		if sg.GapMoves() == moves {
			t.Fatal("no gap movement happened")
		}
		for l, want := range ref {
			got := make([]byte, len(want))
			err := sg.ReadInto(l, got)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("logical %d: err=%v", l, err)
			}
		}
	}
	for l := int64(0); l < sg.Blocks(); l++ {
		write(l)
	}
	churn()
	c.Rank().FailChip(2)
	if err := c.EnterDegradedMode(2); err != nil {
		t.Fatal(err)
	}
	churn()
}

func TestStartGapSpreadsWear(t *testing.T) {
	// Hammering one logical block must spread writes over multiple
	// physical blocks as the mapping rotates. Start-gap rotates one
	// position per full gap revolution, so use a small rank (128 blocks)
	// and an aggressive move interval to see several revolutions.
	r, err := rank.New(rank.PaperConfig(1, 1, 1024, 74))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(r, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := NewStartGap(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	touched := map[int64]bool{}
	for i := 0; i < 700; i++ { // ~5.5 gap revolutions over 128 blocks
		touched[sg.Physical(0)] = true
		if err := sg.Write(0, data); err != nil {
			t.Fatal(err)
		}
	}
	if len(touched) < 5 {
		t.Errorf("hot block touched only %d physical locations", len(touched))
	}
}

func TestStartGapVLEWConsistencyAfterMoves(t *testing.T) {
	// The whole point of Sec V-E: remapping must keep every VLEW's code
	// bits consistent. After many moves, a scrub must find nothing wrong.
	sg, c := newStartGap(t, 75, 3)
	rng := rand.New(rand.NewSource(76))
	for i := 0; i < 300; i++ {
		data := make([]byte, 64)
		rng.Read(data)
		if err := sg.Write(rng.Int63n(sg.Blocks()), data); err != nil {
			t.Fatal(err)
		}
	}
	c.Rank().CloseAllRows()
	rep := c.BootScrub()
	if rep.BitsCorrected != 0 || len(rep.ChipsFailed) != 0 {
		t.Errorf("scrub found inconsistencies after wear leveling: %v", rep)
	}
}

func TestStartGapSurvivesOutage(t *testing.T) {
	// Wear leveling composes with the boot-time story: inject outage
	// errors, scrub, and read back through the (unchanged) mapping.
	sg, c := newStartGap(t, 77, 4)
	rng := rand.New(rand.NewSource(78))
	ref := map[int64][]byte{}
	for i := 0; i < 200; i++ {
		l := rng.Int63n(sg.Blocks())
		data := make([]byte, 64)
		rng.Read(data)
		if err := sg.Write(l, data); err != nil {
			t.Fatal(err)
		}
		ref[l] = data
	}
	c.Rank().InjectRetentionErrors(1e-3)
	if rep := c.BootScrub(); rep.Unrecoverable {
		t.Fatalf("scrub failed: %v", rep)
	}
	for l, want := range ref {
		got := make([]byte, len(want))
		err := sg.ReadInto(l, got)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("logical %d after outage: err=%v", l, err)
		}
	}
}

func TestWriteBlockVerifiedDetectsWornCells(t *testing.T) {
	c := newTestController(t, 80, nil)
	fillRandom(t, c, 81)
	const blk = int64(77)
	loc := c.Rank().Locate(blk)
	// Wear out a bit in chip 2's slice of the block.
	c.Rank().Chip(2).WearOutBit(loc.Bank, loc.Row, loc.Col+3, 5)

	// Writing data that disagrees with the stuck value must trip the
	// verify (one of the two polarities will disagree).
	tripped := false
	for _, fill := range []byte{0x00, 0xFF} {
		data := bytes.Repeat([]byte{fill}, 64)
		err := c.WriteBlockVerified(blk, data)
		if err != nil {
			if !errors.Is(err, ErrBlockWorn) {
				t.Fatalf("unexpected error: %v", err)
			}
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("worn cell never detected")
	}
	if !c.BlockDisabled(blk) {
		t.Error("worn block not retired")
	}
	// Healthy blocks still verify fine.
	if err := c.WriteBlockVerified(78, make([]byte, 64)); err != nil {
		t.Fatalf("healthy block tripped verify: %v", err)
	}
}

func TestWearOutBitSticks(t *testing.T) {
	c := newTestController(t, 82, nil)
	fillRandom(t, c, 83)
	loc := c.Rank().Locate(5)
	chip := c.Rank().Chip(0)
	cell := make([]byte, 1)
	chip.ReadDataInto(cell, loc.Bank, loc.Row, loc.Col)
	before := cell[0]
	chip.WearOutBit(loc.Bank, loc.Row, loc.Col, 0)
	// Try to flip bit 0 via a raw write; it must stay at its old value.
	chip.WriteDataRaw(loc.Bank, loc.Row, loc.Col, []byte{before ^ 0x01})
	chip.ReadDataInto(cell, loc.Bank, loc.Row, loc.Col)
	after := cell[0]
	if after&0x01 != before&0x01 {
		t.Error("stuck bit changed value")
	}
	if after&0xFE != (before^0x01)&0xFE {
		t.Error("healthy bits of the cell did not update")
	}
}
