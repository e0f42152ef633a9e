package nvram

import (
	"math/rand"
	"testing"

	"chipkillpm/internal/bch"
)

// BenchmarkWriteXORRowMiss is one rank-wide demand write whose every chip
// access misses the row buffer: nine chips of the paper's geometry (16
// banks x 16 rows x 1 KiB), 8-byte deltas, alternating between two rows of
// one bank so each WriteXOR closes the other row and drains the EUR slot
// the previous write armed — the ladder's nvram.write_xor_miss_ns. Its cost
// is the drain's sparse BCH delta encode, with the chip cells competing for
// cache beside the encoder's tables.
func BenchmarkWriteXORRowMiss(b *testing.B) {
	const chips, access = 9, 8
	geom := Geometry{Banks: 16, RowsPerBank: 16, RowDataBytes: 1024, VLEWDataBytes: 256, VLEWCodeBytes: 33}
	code := bch.Must(12, 2048, 22)
	set := make([]*Chip, chips)
	for c := range set {
		var err error
		if set[c], err = NewChip(geom, code, int64(c)); err != nil {
			b.Fatal(err)
		}
	}
	const draws = 1024 // pre-drawn deltas: written data varies, as on a real rank
	deltas := make([]byte, draws*chips*access)
	rand.New(rand.NewSource(1)).Read(deltas)
	perRow := geom.RowDataBytes / access
	write := func(i int) {
		delta := deltas[(i%draws)*chips*access:]
		for c, chip := range set {
			chip.WriteXOR(0, i&1, (i%perRow)*access, delta[c*access:(c+1)*access])
		}
	}
	write(0) // build the delta table outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i)
	}
	b.StopTimer()
	for _, chip := range set {
		chip.CloseAllRows()
		for row := 0; row < 2; row++ {
			for v := 0; v < geom.VLEWsPerRow(); v++ {
				data, vcode := readVLEW(chip, 0, row, v)
				if !code.CheckClean(data, vcode[:code.ParityBytes()]) {
					b.Fatalf("row %d VLEW %d is not a codeword after the drains", row, v)
				}
			}
		}
	}
}
