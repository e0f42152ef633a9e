package nvram

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"chipkillpm/internal/bch"
)

var testGeom = Geometry{
	Banks: 2, RowsPerBank: 8, RowDataBytes: 1024,
	VLEWDataBytes: 256, VLEWCodeBytes: 33,
}

func testEncoder(t testing.TB) *bch.Code {
	t.Helper()
	return bch.Must(12, 2048, 22)
}

// readData and readVLEW return fresh copies through the Into reads, for
// tests that keep several results alive at once.
func readData(c *Chip, bank, row, off, n int) []byte {
	out := make([]byte, n)
	c.ReadDataInto(out, bank, row, off)
	return out
}

func readVLEW(c *Chip, bank, row, v int) (data, code []byte) {
	data = make([]byte, c.geom.VLEWDataBytes)
	code = make([]byte, c.geom.VLEWCodeBytes)
	c.ReadVLEWInto(data, code, bank, row, v)
	return data, code
}

func newTestChip(t testing.TB) *Chip {
	t.Helper()
	c, err := NewChip(testGeom, testEncoder(t), 42)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometry(t *testing.T) {
	g := testGeom
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.VLEWsPerRow() != 4 {
		t.Errorf("VLEWsPerRow=%d, want 4", g.VLEWsPerRow())
	}
	if g.RowTotalBytes() != 1024+4*33 {
		t.Errorf("RowTotalBytes=%d", g.RowTotalBytes())
	}
	if g.DataBytes() != 2*8*1024 {
		t.Errorf("DataBytes=%d", g.DataBytes())
	}
	if g.EURRegisters() != 2*4 {
		t.Errorf("EURRegisters=%d", g.EURRegisters())
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Geometry{
		{Banks: 0, RowsPerBank: 1, RowDataBytes: 256, VLEWDataBytes: 256},
		{Banks: 1, RowsPerBank: 1, RowDataBytes: 300, VLEWDataBytes: 256},
		{Banks: 1, RowsPerBank: 1, RowDataBytes: 256, VLEWDataBytes: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted", i)
		}
	}
}

func TestNewChipEncoderMismatch(t *testing.T) {
	enc := bch.Must(10, 512, 4) // 64B encoder vs 256B VLEW geometry
	if _, err := NewChip(testGeom, enc, 1); err == nil {
		t.Error("encoder/geometry mismatch accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	c := newTestChip(t)
	data := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(data)
	c.WriteData(1, 3, 128, data)
	got := readData(c, 1, 3, 128, 64)
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Other locations untouched.
	if !bytes.Equal(readData(c, 1, 3, 0, 64), make([]byte, 64)) {
		t.Fatal("neighbouring bytes modified")
	}
}

func TestWriteXORRecoversNewData(t *testing.T) {
	// The chip receives old XOR new and must store new (Fig 11).
	c := newTestChip(t)
	old := make([]byte, 8)
	newV := make([]byte, 8)
	rng := rand.New(rand.NewSource(2))
	rng.Read(old)
	rng.Read(newV)
	c.WriteData(0, 0, 0, old)
	delta := make([]byte, 8)
	for i := range delta {
		delta[i] = old[i] ^ newV[i]
	}
	c.WriteXOR(0, 0, 0, delta)
	if !bytes.Equal(readData(c, 0, 0, 0, 8), newV) {
		t.Fatal("XOR write did not recover new data")
	}
}

// vlewConsistent checks that a VLEW's stored code bits decode cleanly
// against its stored data.
func vlewConsistent(t *testing.T, c *Chip, enc *bch.Code, bank, row, v int) bool {
	t.Helper()
	data, code := readVLEW(c, bank, row, v)
	return enc.CheckClean(data, code[:enc.ParityBytes()])
}

func TestEURCoalescingMaintainsCodeConsistency(t *testing.T) {
	c := newTestChip(t)
	enc := testEncoder(t)
	rng := rand.New(rand.NewSource(3))

	// Many XOR writes spread across the whole row (all 4 VLEWs): the EUR
	// should coalesce them into one code write per VLEW at row close.
	for w := 0; w < 32; w++ {
		delta := make([]byte, 8)
		rng.Read(delta)
		c.WriteXOR(0, 2, 32*w, delta)
	}
	if c.Stats().VLEWCodeWrites != 0 {
		t.Fatalf("code writes before row close: %d", c.Stats().VLEWCodeWrites)
	}
	c.CloseRow(0)
	st := c.Stats()
	if st.VLEWCodeWrites != 4 {
		t.Errorf("VLEWCodeWrites=%d, want 4 (one per touched VLEW)", st.VLEWCodeWrites)
	}
	if got := st.CFactor(); math.Abs(got-4.0/32.0) > 1e-9 {
		t.Errorf("CFactor=%.3f, want 0.125", got)
	}
	for v := 0; v < 4; v++ {
		if !vlewConsistent(t, c, enc, 0, 2, v) {
			t.Errorf("VLEW %d code inconsistent after drain", v)
		}
	}
}

func TestImplicitRowCloseDrainsEUR(t *testing.T) {
	c := newTestChip(t)
	enc := testEncoder(t)
	rng := rand.New(rand.NewSource(4))
	delta := make([]byte, 8)
	rng.Read(delta)
	c.WriteXOR(0, 1, 0, delta)
	// Writing a different row in the same bank must close row 1 first.
	rng.Read(delta)
	c.WriteXOR(0, 5, 0, delta)
	if !vlewConsistent(t, c, enc, 0, 1, 0) {
		t.Error("row 1 VLEW inconsistent after implicit close")
	}
	if c.Stats().RowActivations != 2 || c.Stats().RowCloses != 1 {
		t.Errorf("activations=%d closes=%d", c.Stats().RowActivations, c.Stats().RowCloses)
	}
}

func TestReadVLEWFlushesPendingEUR(t *testing.T) {
	c := newTestChip(t)
	enc := testEncoder(t)
	delta := make([]byte, 8)
	delta[0] = 0xFF
	c.WriteXOR(1, 0, 0, delta)
	// Row still open with a pending EUR register; the read must still
	// return a consistent (data, code) pair.
	if !vlewConsistent(t, c, enc, 1, 0, 0) {
		t.Error("ReadVLEWInto returned stale code bits")
	}
}

func TestConventionalWriteUpdatesCodeImmediately(t *testing.T) {
	c := newTestChip(t)
	enc := testEncoder(t)
	data := make([]byte, 16)
	rand.New(rand.NewSource(5)).Read(data)
	c.WriteData(0, 0, 40, data)
	if !vlewConsistent(t, c, enc, 0, 0, 0) {
		t.Error("code bits stale after conventional write")
	}
}

func TestWriteSpanningVLEWs(t *testing.T) {
	c := newTestChip(t)
	enc := testEncoder(t)
	data := make([]byte, 64)
	rand.New(rand.NewSource(6)).Read(data)
	// Offset 224..288 spans VLEW 0 and VLEW 1.
	c.WriteData(0, 0, 224, data)
	if !vlewConsistent(t, c, enc, 0, 0, 0) || !vlewConsistent(t, c, enc, 0, 0, 1) {
		t.Error("spanning write left inconsistent code bits")
	}
	if !bytes.Equal(readData(c, 0, 0, 224, 64), data) {
		t.Error("spanning write data mismatch")
	}
}

func TestInjectRetentionErrorsAndScrubability(t *testing.T) {
	c := newTestChip(t)
	enc := testEncoder(t)
	rng := rand.New(rand.NewSource(7))
	// Fill with data.
	for row := 0; row < testGeom.RowsPerBank; row++ {
		buf := make([]byte, testGeom.RowDataBytes)
		rng.Read(buf)
		c.WriteData(0, row, 0, buf)
	}
	flips := c.InjectRetentionErrors(1e-3)
	if flips == 0 {
		t.Fatal("no errors injected at 1e-3")
	}
	totalBits := float64(testGeom.RowTotalBytes()) * float64(testGeom.RowsPerBank*testGeom.Banks) * 8
	if f := float64(flips); f < 0.3*totalBits*1e-3 || f > 3*totalBits*1e-3 {
		t.Errorf("flips=%d far from expectation %.0f", flips, totalBits*1e-3)
	}
	// Every VLEW must decode back to clean with the 22-EC code
	// (expected errors per 2312-bit word at 1e-3 is ~2.3).
	for row := 0; row < testGeom.RowsPerBank; row++ {
		for v := 0; v < testGeom.VLEWsPerRow(); v++ {
			data, code := readVLEW(c, 0, row, v)
			if _, err := enc.Decode(data, code[:enc.ParityBytes()]); err != nil {
				t.Fatalf("row %d vlew %d: scrub decode failed: %v", row, v, err)
			}
		}
	}
}

func TestFailedChipBehaviour(t *testing.T) {
	c := newTestChip(t)
	data := make([]byte, 8)
	for i := range data {
		data[i] = 0xAA
	}
	c.WriteData(0, 0, 0, data)
	c.Fail()
	if c.Healthy() {
		t.Error("failed chip reports healthy")
	}
	// Reads return garbage (cannot equal the stored pattern for 8 bytes
	// except with probability 2^-64; check twice to be safe).
	g1 := readData(c, 0, 0, 0, 8)
	g2 := readData(c, 0, 0, 0, 8)
	if bytes.Equal(g1, data) && bytes.Equal(g2, data) {
		t.Error("failed chip returned stored data")
	}
	// Writes are dropped.
	c.WriteData(0, 0, 0, data)
	c.Repair()
	if !c.Healthy() {
		t.Error("repair did not restore health")
	}
	if !bytes.Equal(readData(c, 0, 0, 0, 8), make([]byte, 8)) {
		t.Error("repair did not zero contents")
	}
}

func TestRowWearAccounting(t *testing.T) {
	c := newTestChip(t)
	for i := 0; i < 5; i++ {
		c.WriteXOR(0, 3, 0, []byte{1})
	}
	if w := c.RowWear(0, 3); w != 5 {
		t.Errorf("RowWear=%d, want 5", w)
	}
	if w := c.RowWear(0, 4); w != 0 {
		t.Errorf("untouched RowWear=%d", w)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	c := newTestChip(t)
	for name, fn := range map[string]func(){
		"bank":    func() { readData(c, 9, 0, 0, 1) },
		"row":     func() { readData(c, 0, 99, 0, 1) },
		"overrun": func() { readData(c, 0, 0, 1020, 8) },
		"vlew":    func() { readVLEW(c, 0, 0, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTechRBERCurves(t *testing.T) {
	// Paper anchor points (Fig 1 and Sec II-B).
	cases := []struct {
		tech Tech
		secs float64
		want float64
	}{
		{ReRAM, 1, 7e-5},
		{ReRAM, Year, 1e-3},
		{PCM3, Hour, 2e-4},
		{PCM3, Week, 1e-3},
		{PCM3, 1, 7e-5},
	}
	for _, c := range cases {
		got := c.tech.RBER(c.secs)
		if math.Abs(got-c.want) > 0.05*c.want {
			t.Errorf("%s @ %s: RBER=%.3g, want %.3g", c.tech.Name, FormatInterval(c.secs), got, c.want)
		}
	}
}

func TestRBERMonotonicInTime(t *testing.T) {
	for _, tech := range []Tech{ReRAM, PCM3, PCM2, FlashMLC} {
		prev := 0.0
		for _, s := range []float64{1, 60, Hour, Day, Week, Month, Year} {
			r := tech.RBER(s)
			if r < prev {
				t.Errorf("%s: RBER decreased at %s", tech.Name, FormatInterval(s))
			}
			prev = r
		}
	}
}

func TestRBERClamps(t *testing.T) {
	if ReRAM.RBER(0.001) != ReRAM.RBER(1) {
		t.Error("below-first-anchor not clamped")
	}
	if ReRAM.RBER(100*Year) != ReRAM.RBER(Year) {
		t.Error("beyond-last-anchor not clamped")
	}
}

func TestRBERTableCoversFig1(t *testing.T) {
	table := RBERTable([]float64{1, Hour, Week, Year})
	if len(table) != 5 {
		t.Fatalf("table has %d technologies, want 5", len(table))
	}
	for name, row := range table {
		if len(row) != 4 {
			t.Errorf("%s: %d entries", name, len(row))
		}
	}
}

func TestFormatInterval(t *testing.T) {
	cases := map[float64]string{1: "1s", 120: "2m", Hour: "1h", Day: "1d", Week: "1.0w", Year: "1.0y"}
	for s, want := range cases {
		if got := FormatInterval(s); got != want {
			t.Errorf("FormatInterval(%g)=%q, want %q", s, got, want)
		}
	}
}

func TestSampleBinomialStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Small-mean regime.
	n := int64(1_000_000)
	p := 1e-5
	sum := int64(0)
	trials := 200
	for i := 0; i < trials; i++ {
		sum += sampleBinomial(rng, n, p)
	}
	mean := float64(sum) / float64(trials)
	if mean < 5 || mean > 16 {
		t.Errorf("small-mean regime: mean=%.2f, want ~10", mean)
	}
	// Large-mean regime.
	sum = 0
	for i := 0; i < trials; i++ {
		sum += sampleBinomial(rng, n, 0.01)
	}
	mean = float64(sum) / float64(trials)
	if mean < 9500 || mean > 10500 {
		t.Errorf("large-mean regime: mean=%.0f, want ~10000", mean)
	}
}

func TestFlipDataBitBypassesECC(t *testing.T) {
	c := newTestChip(t)
	enc := testEncoder(t)
	data := make([]byte, 16)
	c.WriteData(0, 0, 0, data)
	c.FlipDataBit(0, 0, 3, 2)
	got := readData(c, 0, 0, 3, 1)
	if got[0] != 1<<2 {
		t.Fatalf("bit not flipped: %#x", got[0])
	}
	// Code bits must now be inconsistent (the injection is below ECC).
	if vlewConsistent(t, c, enc, 0, 0, 0) {
		t.Error("FlipDataBit updated code bits; it must not")
	}
}

func TestWriteDataRawSkipsCodeMaintenance(t *testing.T) {
	c := newTestChip(t)
	enc := testEncoder(t)
	payload := []byte{1, 2, 3, 4}
	c.WriteDataRaw(0, 0, 0, payload)
	if !bytes.Equal(readData(c, 0, 0, 0, 4), payload) {
		t.Fatal("raw write did not store data")
	}
	if vlewConsistent(t, c, enc, 0, 0, 0) {
		t.Error("raw write maintained code bits; it must not")
	}
}

func TestXORCodeAndReadCode(t *testing.T) {
	c := newTestChip(t)
	before := make([]byte, testGeom.VLEWCodeBytes)
	c.ReadCodeInto(before, 1, 2, 3)
	delta := make([]byte, len(before))
	delta[0] = 0xAB
	c.XORCode(1, 2, 3, delta)
	after := make([]byte, len(before))
	c.ReadCodeInto(after, 1, 2, 3)
	if after[0] != before[0]^0xAB {
		t.Error("XORCode did not apply")
	}
	for i := 1; i < len(after); i++ {
		if after[i] != before[i] {
			t.Fatalf("byte %d disturbed", i)
		}
	}
}

func TestWearOutBitSurvivesAllWritePaths(t *testing.T) {
	c := newTestChip(t)
	// Set the cell to 1 then wear it out stuck-at-1.
	c.WriteData(0, 0, 0, []byte{0xFF})
	c.WearOutBit(0, 0, 0, 0)
	// Conventional write of 0.
	c.WriteData(0, 0, 0, []byte{0x00})
	if readData(c, 0, 0, 0, 1)[0]&1 != 1 {
		t.Error("WriteData overcame the stuck bit")
	}
	// XOR write attempting to clear it.
	c.WriteXOR(0, 0, 0, []byte{0x01})
	if readData(c, 0, 0, 0, 1)[0]&1 != 1 {
		t.Error("WriteXOR overcame the stuck bit")
	}
	// Raw write too.
	c.WriteDataRaw(0, 0, 0, []byte{0x00})
	if readData(c, 0, 0, 0, 1)[0]&1 != 1 {
		t.Error("WriteDataRaw overcame the stuck bit")
	}
}
