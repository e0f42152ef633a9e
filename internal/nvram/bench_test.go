package nvram

import (
	"math/rand"
	"runtime"
	"sync/atomic"
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

// BenchmarkWriteXORParallel is the write_rowlocal shape under b.RunParallel:
// nine chips of the paper geometry (rank.PaperConfig(8, 16, 1024, ·)), each
// goroutine streaming whole rows, 8-byte deltas rank-wide, through banks it
// alone owns (goroutine k owns banks k, k+G, ... for G goroutines), so the
// EUR coalesces 32 writes per drain. One op is one rank-wide write. With
// -cpu 1,2 the per-op time shows whether banks written from different cores
// contend for the chips' cache lines: independent banks should halve it.
func BenchmarkWriteXORParallel(b *testing.B) {
	const chips, access = 9, 8
	geom := Geometry{Banks: 8, RowsPerBank: 16, RowDataBytes: 1024, VLEWDataBytes: 256, VLEWCodeBytes: 33}
	code := bch.Must(12, 2048, 22)
	set := make([]*Chip, chips)
	for c := range set {
		var err error
		if set[c], err = NewChip(geom, code, int64(c)); err != nil {
			b.Fatal(err)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > geom.Banks {
		b.Skipf("%d goroutines for %d banks: some bank would have two owners", workers, geom.Banks)
	}
	const draws = 1024
	deltas := make([]byte, draws*chips*access)
	rand.New(rand.NewSource(1)).Read(deltas)
	perRow := geom.RowDataBytes / access
	set[0].WriteXOR(0, 0, 0, deltas[:access]) // build the delta table outside the timed region
	var ids atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(ids.Add(1)) - 1
		var banks []int
		for bank := id; bank < geom.Banks; bank += workers {
			banks = append(banks, bank)
		}
		for i := 0; pb.Next(); i++ {
			col, row := i%perRow, i/perRow
			bank := banks[row%len(banks)]
			delta := deltas[(i%draws)*chips*access:]
			for c, chip := range set {
				chip.WriteXOR(bank, row%geom.RowsPerBank, col*access, delta[c*access:(c+1)*access])
			}
		}
	})
	b.StopTimer()
	for _, chip := range set {
		chip.CloseAllRows()
		for bank := 0; bank < geom.Banks; bank++ {
			for row := 0; row < geom.RowsPerBank; row++ {
				for v := 0; v < geom.VLEWsPerRow(); v++ {
					data, vcode := readVLEW(chip, bank, row, v)
					if !code.CheckClean(data, vcode[:code.ParityBytes()]) {
						b.Fatalf("bank %d row %d VLEW %d is not a codeword after the drains", bank, row, v)
					}
				}
			}
		}
	}
}
