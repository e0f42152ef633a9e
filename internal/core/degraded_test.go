package core

import (
	"bytes"
	"math/rand"
	"testing"

	"chipkillpm/internal/rank"
)

// enterDegraded builds a filled controller, kills a chip, scrubs, and
// remaps, returning the reference contents.
func enterDegraded(t *testing.T, seed int64, chip int) (*Controller, map[int64][]byte) {
	t.Helper()
	c := newTestController(t, seed, nil)
	ref := fillRandom(t, c, seed+1)
	c.Rank().FailChip(chip)
	if err := c.EnterDegradedMode(chip); err != nil {
		t.Fatal(err)
	}
	return c, ref
}

func TestEnterDegradedModeValidation(t *testing.T) {
	c := newTestController(t, 50, nil)
	fillRandom(t, c, 51)
	if err := c.EnterDegradedMode(8); err == nil {
		t.Error("parity chip accepted as failed data chip")
	}
	if err := c.EnterDegradedMode(-1); err == nil {
		t.Error("negative chip accepted")
	}
	if err := c.EnterDegradedMode(2); err != nil {
		t.Fatal(err)
	}
	if err := c.EnterDegradedMode(3); err == nil {
		t.Error("second remap accepted")
	}
	if ok, chip := c.Degraded(); !ok || chip != 2 {
		t.Errorf("Degraded() = %v,%d", ok, chip)
	}
}

func TestDegradedReadsRecoverAllData(t *testing.T) {
	c, ref := enterDegraded(t, 52, 4)
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: wrong data after remap", b)
		}
	}
}

func TestDegradedWritesAndReadBack(t *testing.T) {
	c, ref := enterDegraded(t, 54, 0)
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 100; i++ {
		b := rng.Int63n(c.Rank().Blocks())
		data := make([]byte, 64)
		rng.Read(data)
		if err := c.WriteBlock(b, data); err != nil {
			t.Fatalf("write %d: %v", b, err)
		}
		ref[b] = data
	}
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d: err=%v", b, err)
		}
	}
}

func TestDegradedCorrectsBitErrors(t *testing.T) {
	// The striped VLEWs must keep correcting random bit errors even
	// without per-block RS bits.
	c, ref := enterDegraded(t, 56, 7)
	c.ResetStats()
	c.Rank().InjectRetentionErrors(5e-4)
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: wrong data under degraded bit errors", b)
		}
	}
	if c.Stats().BitsCorrectedVLEW == 0 {
		t.Error("no corrections recorded despite injected errors")
	}
}

func TestDegradedCorrectionWritesBack(t *testing.T) {
	// Corrected VLEWs are scrubbed in place: a second read of the same
	// block must be clean.
	c, ref := enterDegraded(t, 58, 3)
	c.Rank().InjectRetentionErrors(5e-4)
	for b := int64(0); b < c.Rank().Blocks(); b++ {
		if _, err := readBlock(c, b); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
	}
	c.ResetStats()
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d: err=%v", b, err)
		}
	}
	if got := c.Stats().ReadsVLEWFallback; got != 0 {
		t.Errorf("%d corrections on the second pass, want 0 (write-back failed)", got)
	}
}

func TestDegradedReadAmplification(t *testing.T) {
	c, _ := enterDegraded(t, 60, 1)
	c.ResetStats()
	if _, err := readBlock(c, 10); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	// Each degraded read fetches its 4-block striped VLEW plus code.
	if st.BlockFetches < 4 || st.BlockFetches > 6 {
		t.Errorf("BlockFetches=%d, want ~5", st.BlockFetches)
	}
}

func TestDegradedSlotMappingBijective(t *testing.T) {
	// Every striped VLEW of a row must own a distinct (chip, slot), and
	// the failed chip must hold none.
	c, _ := enterDegraded(t, 62, 5)
	type key struct{ bank, row, chip, slot int }
	seen := map[key]int64{}
	for first := int64(0); first < c.Rank().Blocks(); first += StripedBlocksPerVLEW {
		bank, row, chip, slot, _ := c.stripedLoc(first)
		if chip == 5 {
			t.Fatalf("striped VLEW %d assigned to the failed chip", first)
		}
		k := key{bank, row, chip, slot}
		if prev, dup := seen[k]; dup {
			t.Fatalf("slot collision: VLEWs %d and %d both at %+v", prev, first, k)
		}
		seen[k] = first
	}
}

func TestDegradedModeFromHealthyChip(t *testing.T) {
	// Proactive retirement: remap a chip that has not failed yet (e.g.
	// predictive failure analysis); its own data is used directly.
	c := newTestController(t, 64, nil)
	ref := fillRandom(t, c, 65)
	if err := c.EnterDegradedMode(6); err != nil {
		t.Fatal(err)
	}
	c.Rank().FailChip(6) // now it dies for real
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d: err=%v", b, err)
		}
	}
}

// BenchmarkEnterDegradedMode times the whole remap of an 8x16x1024B rank
// (16384 blocks, 512 bands) around a dead data chip: every band's VLEWs
// read and decoded once, the dead chip's words solved from the survivors,
// and the striped code encoded. Building and filling the rank is outside
// the timer.
func BenchmarkEnterDegradedMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := rank.New(rank.PaperConfig(8, 16, 1024, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		c, err := NewController(r, DefaultConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		fillRandom(b, c, int64(i))
		r.FailChip(3)
		b.StartTimer()
		if err := c.EnterDegradedMode(3); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBootScrubDegraded scrubs a degraded rank after an outage. Its code
// slots hold striped codes, so the scrub must walk the striped groups: it
// corrects the drift, convicts no chip, and leaves every block reading
// clean.
func TestBootScrubDegraded(t *testing.T) {
	c := newTestController(t, 140, nil)
	ref := fillRandom(t, c, 141)
	if err := c.EnterDegradedMode(2); err != nil {
		t.Fatal(err)
	}
	c.Rank().CloseAllRows()
	if n := c.Rank().InjectRetentionErrors(1e-4); n == 0 {
		t.Fatal("no retention errors injected")
	}
	rep := c.BootScrub()
	if rep.Unrecoverable || len(rep.ChipsFailed) != 0 || len(rep.ChipsRebuilt) != 0 {
		t.Fatalf("degraded boot scrub: %v", rep)
	}
	if want := c.Rank().Blocks() / StripedBlocksPerVLEW; rep.VLEWsScrubbed != want {
		t.Fatalf("scrubbed %d groups, want %d", rep.VLEWsScrubbed, want)
	}
	if rep.BitsCorrected == 0 {
		t.Fatal("degraded boot scrub corrected no bit")
	}
	c.ResetStats()
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("block %d after scrub: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: wrong data after scrub", b)
		}
	}
	if st := c.Stats(); st.ReadsClean != st.Reads {
		t.Fatalf("%d of %d reads after the scrub were not clean", st.Reads-st.ReadsClean, st.Reads)
	}
}
