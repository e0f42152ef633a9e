package rank

import (
	"math/rand"
	"testing"
)

// benchWriteBlockXOR drives rank-wide demand writes through
// Rank.WriteBlockXOR on the paper's geometry (16 banks x 16 rows x 1 KiB,
// nine chips): one decode per block, then each chip's 8-byte kernel.
// Write i goes to row rowOf(i) of bank 0, at column i mod blocks-per-row.
// After the timed loop every VLEW the writes touched must be a codeword
// once the rows close, so a kernel that drops or misplaces a code update
// fails the benchmark.
func benchWriteBlockXOR(b *testing.B, rowOf func(i int) int) {
	r, err := New(PaperConfig(16, 16, 1024, 1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := r.Config()
	const draws = 1024 // pre-drawn deltas: written data varies, as on a real rank
	stride := cfg.BlockBytes() + cfg.ChipAccessBytes
	deltas := make([]byte, draws*stride)
	rand.New(rand.NewSource(1)).Read(deltas)
	bpr, banks := int64(cfg.BlocksPerRow()), int64(cfg.Geometry.Banks)
	write := func(i int) {
		d := deltas[(i%draws)*stride:]
		// Block index of (bank 0, row, column i): rows interleave across
		// banks, so bank 0's row k is the rank's row k*banks.
		block := int64(rowOf(i))*banks*bpr + int64(i)%bpr
		r.WriteBlockXOR(block, d[:cfg.BlockBytes()], d[cfg.BlockBytes():stride])
	}
	write(0) // build the delta table outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i)
	}
	b.StopTimer()
	r.CloseAllRows()
	code := cfg.VLEWCode
	g := cfg.Geometry
	data, vcode := make([]byte, g.VLEWDataBytes), make([]byte, g.VLEWCodeBytes)
	for c := 0; c < r.NumChips(); c++ {
		for row := 0; row < 2; row++ {
			for v := 0; v < g.VLEWsPerRow(); v++ {
				r.Chip(c).ReadVLEWInto(data, vcode, 0, row, v)
				if !code.CheckClean(data, vcode[:code.ParityBytes()]) {
					b.Fatalf("chip %d row %d VLEW %d is not a codeword after the writes", c, row, v)
				}
			}
		}
	}
}

// BenchmarkWriteBlockXORRowHit streams writes through one open row, so the
// EUR coalesces every write and nothing drains inside the timed loop: the
// cost is the decode and the nine chips' word kernels.
func BenchmarkWriteBlockXORRowHit(b *testing.B) {
	benchWriteBlockXOR(b, func(int) int { return 0 })
}

// BenchmarkWriteBlockXORRowMiss alternates between two rows of one bank, so
// every write closes the other row on all nine chips and drains the EUR
// slot the previous write armed: the rank-level counterpart of the nvram
// package's BenchmarkWriteXORRowMiss.
func BenchmarkWriteBlockXORRowMiss(b *testing.B) {
	benchWriteBlockXOR(b, func(i int) int { return i & 1 })
}
