package rank

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func testRank(t testing.TB) *Rank {
	t.Helper()
	r, err := New(PaperConfig(2, 8, 1024, 11))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigShape(t *testing.T) {
	cfg := PaperConfig(2, 8, 1024, 1)
	if cfg.BlockBytes() != 64 {
		t.Errorf("BlockBytes=%d, want 64", cfg.BlockBytes())
	}
	if cfg.BlocksPerRow() != 128 {
		t.Errorf("BlocksPerRow=%d, want 128", cfg.BlocksPerRow())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// The VLEW code and its tables exist once per process, not per rank.
	if other := PaperConfig(4, 16, 2048, 2); other.VLEWCode != cfg.VLEWCode {
		t.Error("two PaperConfig calls built two bch.Codes")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := PaperConfig(2, 8, 1024, 1)
	cfg.DataChips = 1
	if err := cfg.Validate(); err == nil {
		t.Error("1 data chip accepted")
	}
	cfg = PaperConfig(2, 8, 1024, 1)
	cfg.ChipAccessBytes = 3
	if err := cfg.Validate(); err == nil {
		t.Error("misaligned chip access accepted")
	}
}

func TestCapacityAndLocate(t *testing.T) {
	r := testRank(t)
	if r.Blocks() != 2*8*128 {
		t.Fatalf("Blocks=%d", r.Blocks())
	}
	// Block 0: bank 0, row 0, col 0.
	if loc := r.Locate(0); loc != (BlockLoc{0, 0, 0}) {
		t.Errorf("Locate(0)=%+v", loc)
	}
	// Block 127 is the last of row 0; block 128 starts global row 1,
	// which lands in bank 1 (row interleaving).
	if loc := r.Locate(127); loc != (BlockLoc{0, 0, 127 * 8}) {
		t.Errorf("Locate(127)=%+v", loc)
	}
	if loc := r.Locate(128); loc != (BlockLoc{1, 0, 0}) {
		t.Errorf("Locate(128)=%+v", loc)
	}
	if loc := r.Locate(256); loc != (BlockLoc{0, 1, 0}) {
		t.Errorf("Locate(256)=%+v", loc)
	}
	// All blocks map uniquely.
	seen := map[BlockLoc]bool{}
	for b := int64(0); b < r.Blocks(); b++ {
		loc := r.Locate(b)
		if seen[loc] {
			t.Fatalf("duplicate location %+v", loc)
		}
		seen[loc] = true
	}
}

func TestLocateOutOfRangePanics(t *testing.T) {
	r := testRank(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Locate(r.Blocks())
}

func TestBlockRoundTrip(t *testing.T) {
	r := testRank(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		b := rng.Int63n(r.Blocks())
		data := make([]byte, 64)
		check := make([]byte, 8)
		rng.Read(data)
		rng.Read(check)
		r.WriteBlockRaw(b, data, check)
		gd, gc := r.ReadBlockRaw(b)
		if !bytes.Equal(gd, data) || !bytes.Equal(gc, check) {
			t.Fatalf("block %d round trip failed", b)
		}
	}
}

func TestBlockStriping(t *testing.T) {
	// Byte i of a block must live on chip i/8: verify by failing chip 3
	// and checking exactly bytes 24..31 go bad.
	r := testRank(t)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	r.WriteBlockRaw(5, data, make([]byte, 8))
	r.FailChip(3)
	got, _ := r.ReadBlockRaw(5)
	for i := 0; i < 64; i++ {
		inFailed := i >= 24 && i < 32
		if !inFailed && got[i] != data[i] {
			t.Errorf("byte %d corrupted outside failed chip", i)
		}
	}
	// The failed chip's 8 bytes are garbage with overwhelming probability.
	if bytes.Equal(got[24:32], data[24:32]) {
		if g2, _ := r.ReadBlockRaw(5); bytes.Equal(g2[24:32], data[24:32]) {
			t.Error("failed chip returned stored data twice")
		}
	}
}

func TestWriteBlockXORRecoversNewData(t *testing.T) {
	r := testRank(t)
	rng := rand.New(rand.NewSource(2))
	oldD := make([]byte, 64)
	oldC := make([]byte, 8)
	rng.Read(oldD)
	rng.Read(oldC)
	r.WriteBlockRaw(9, oldD, oldC)
	newD := make([]byte, 64)
	newC := make([]byte, 8)
	rng.Read(newD)
	rng.Read(newC)
	dd := make([]byte, 64)
	dc := make([]byte, 8)
	for i := range dd {
		dd[i] = oldD[i] ^ newD[i]
	}
	for i := range dc {
		dc[i] = oldC[i] ^ newC[i]
	}
	r.WriteBlockXOR(9, dd, dc)
	gd, gc := r.ReadBlockRaw(9)
	if !bytes.Equal(gd, newD) || !bytes.Equal(gc, newC) {
		t.Fatal("XOR write did not produce new values")
	}
}

func TestBlocksInVLEW(t *testing.T) {
	r := testRank(t)
	got := r.BlocksInVLEW(37)
	if len(got) != 32 {
		t.Fatalf("VLEW spans %d blocks, want 32", len(got))
	}
	if got[0] != 32 || got[31] != 63 {
		t.Errorf("span [%d,%d], want [32,63]", got[0], got[31])
	}
	// All blocks in a VLEW must share bank, row, and VLEW index.
	base := r.Locate(got[0])
	for _, b := range got {
		loc := r.Locate(b)
		if loc.Bank != base.Bank || loc.Row != base.Row {
			t.Errorf("block %d in different row", b)
		}
		if loc.VLEWIndex(256) != base.VLEWIndex(256) {
			t.Errorf("block %d in different VLEW", b)
		}
	}
}

func TestVLEWConsistencyAfterXORWritesAndClose(t *testing.T) {
	// End-to-end: XOR writes through the rank leave every chip's VLEW
	// code bits consistent after rows close.
	r := testRank(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		b := rng.Int63n(r.Blocks())
		dd := make([]byte, 64)
		dc := make([]byte, 8)
		rng.Read(dd)
		rng.Read(dc)
		r.WriteBlockXOR(b, dd, dc)
	}
	r.CloseAllRows()
	code := r.Config().VLEWCode
	g := r.Config().Geometry
	for ci := 0; ci < r.NumChips(); ci++ {
		chip := r.Chip(ci)
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.RowsPerBank; row++ {
				for v := 0; v < g.VLEWsPerRow(); v++ {
					data, cd := chip.ReadVLEW(bank, row, v)
					if !code.CheckClean(data, cd[:code.ParityBytes()]) {
						t.Fatalf("chip %d bank %d row %d vlew %d inconsistent", ci, bank, row, v)
					}
				}
			}
		}
	}
}

func TestHealthyChips(t *testing.T) {
	r := testRank(t)
	if n := len(r.HealthyChips()); n != 9 {
		t.Fatalf("healthy=%d, want 9", n)
	}
	r.FailChip(r.ParityChipIndex())
	h := r.HealthyChips()
	if len(h) != 8 {
		t.Fatalf("healthy=%d, want 8", len(h))
	}
	for _, i := range h {
		if i == r.ParityChipIndex() {
			t.Error("failed parity chip listed healthy")
		}
	}
}

func TestStorageOverheadIs27Percent(t *testing.T) {
	r := testRank(t)
	if got := r.StorageOverhead(); math.Abs(got-0.2699) > 0.001 {
		t.Errorf("StorageOverhead=%.4f, want 0.270", got)
	}
}

func TestStatsAggregation(t *testing.T) {
	r := testRank(t)
	r.WriteBlockXOR(0, make([]byte, 64), make([]byte, 8))
	s := r.Stats()
	if s.DataWrites != 9 { // 8 data chips + parity chip each got one XOR write
		t.Errorf("DataWrites=%d, want 9", s.DataWrites)
	}
	if s.RowActivations != 9 {
		t.Errorf("RowActivations=%d, want 9", s.RowActivations)
	}
}

// A read served by a failed chip must show up in the rank-level sum, not
// only in that chip's own counters.
func TestStatsCountsFailedAccesses(t *testing.T) {
	r := testRank(t)
	r.FailChip(3)
	r.ReadBlockRaw(0)
	if got := r.Stats().FailedAccesses; got != 1 {
		t.Errorf("FailedAccesses=%d after one block read with a failed chip, want 1", got)
	}
}

func TestInjectRetentionErrorsSpansAllChips(t *testing.T) {
	r := testRank(t)
	flips := r.InjectRetentionErrors(1e-3)
	bitsPerChip := float64(r.Config().Geometry.RowTotalBytes()) *
		float64(r.Config().Geometry.Banks*r.Config().Geometry.RowsPerBank) * 8
	expect := bitsPerChip * 9 * 1e-3
	if f := float64(flips); f < 0.5*expect || f > 1.7*expect {
		t.Errorf("flips=%d, expected ~%.0f", flips, expect)
	}
}
