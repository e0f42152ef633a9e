package rank

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// decoderConfigs are the paper's power-of-two geometry, where the decoder
// shifts and masks, and one with three banks and 768-B rows (96 blocks per
// row), where it divides.
func decoderConfigs() []Config {
	return []Config{PaperConfig(4, 8, 1024, 3), PaperConfig(3, 5, 768, 3)}
}

// TestDecoderMatchesDivision pins the precomputed decoder against the
// division form it replaces, for every block of both geometries: Locate,
// Bank and the cell-array offset the lock-free reader uses.
func TestDecoderMatchesDivision(t *testing.T) {
	for _, cfg := range decoderConfigs() {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := cfg.Geometry
		bpr := int64(cfg.BlocksPerRow())
		pow2 := bpr&(bpr-1) == 0 && g.Banks&(g.Banks-1) == 0
		if got := r.Decoder().Pow2(); got != pow2 {
			t.Fatalf("%+v: shift-and-mask form %v, want %v", g, got, pow2)
		}
		for b := int64(0); b < r.Blocks(); b++ {
			rowIdx := b / bpr
			want := BlockLoc{
				Bank: int(rowIdx % int64(g.Banks)),
				Row:  int(rowIdx / int64(g.Banks)),
				Col:  int(b%bpr) * cfg.ChipAccessBytes,
			}
			if got := r.Locate(b); got != want {
				t.Fatalf("%+v: block %d: Locate %+v, want %+v", g, b, got, want)
			}
			if got := r.Decoder().Bank(b); got != want.Bank {
				t.Fatalf("%+v: block %d: Bank %d, want %d", g, b, got, want.Bank)
			}
			off := int64((want.Bank*g.RowsPerBank+want.Row)*g.RowTotalBytes() + want.Col)
			if got := r.Decoder().Offset(b); got != off {
				t.Fatalf("%+v: block %d: Offset %d, want %d", g, b, got, off)
			}
		}
	}
}

// TestBlockOpsMatchPerChipPath pins the rank's resolve-once block ops
// against the same accesses made chip by chip through the bank-addressed
// methods at the Locate address: random XOR and raw writes and raw reads
// on both geometries must leave both ranks' chips identical, Stats
// included, and read back the same bytes.
func TestBlockOpsMatchPerChipPath(t *testing.T) {
	for _, cfg := range decoderConfigs() {
		t.Run(fmt.Sprintf("%dx%dB", cfg.Geometry.Banks, cfg.Geometry.RowDataBytes), func(t *testing.T) {
			got, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := cfg.ChipAccessBytes
			rng := rand.New(rand.NewSource(5))
			data, check := make([]byte, cfg.BlockBytes()), make([]byte, n)
			gotData, gotCheck := make([]byte, cfg.BlockBytes()), make([]byte, n)
			wantData, wantCheck := make([]byte, cfg.BlockBytes()), make([]byte, n)
			for step := 0; step < 4000; step++ {
				b := rng.Int63n(got.Blocks())
				loc := want.Locate(b)
				if step == 2000 {
					got.FailChip(2)
					want.FailChip(2)
				}
				rng.Read(data)
				rng.Read(check)
				switch rng.Intn(4) {
				case 0, 1:
					got.WriteBlockXOR(b, data, check)
					for i := 0; i < cfg.DataChips; i++ {
						want.Chip(i).WriteXOR(loc.Bank, loc.Row, loc.Col, data[i*n:(i+1)*n])
					}
					want.Chip(cfg.DataChips).WriteXOR(loc.Bank, loc.Row, loc.Col, check)
				case 2:
					got.WriteBlockRaw(b, data, check)
					for i := 0; i < cfg.DataChips; i++ {
						want.Chip(i).WriteData(loc.Bank, loc.Row, loc.Col, data[i*n:(i+1)*n])
					}
					want.Chip(cfg.DataChips).WriteData(loc.Bank, loc.Row, loc.Col, check)
				default:
					got.ReadBlockRawInto(b, gotData, gotCheck)
					for i := 0; i < cfg.DataChips; i++ {
						want.Chip(i).ReadDataInto(wantData[i*n:(i+1)*n], loc.Bank, loc.Row, loc.Col)
					}
					want.Chip(cfg.DataChips).ReadDataInto(wantCheck, loc.Bank, loc.Row, loc.Col)
					if !bytes.Equal(gotData, wantData) || !bytes.Equal(gotCheck, wantCheck) {
						t.Fatalf("step %d: block %d reads differently", step, b)
					}
				}
			}
			got.CloseAllRows()
			want.CloseAllRows()
			for i := 0; i < got.NumChips(); i++ {
				if !bytes.Equal(got.Chip(i).CellArray(), want.Chip(i).CellArray()) {
					t.Fatalf("chip %d: cell arrays differ", i)
				}
				if gs, ws := got.Chip(i).Stats(), want.Chip(i).Stats(); gs != ws {
					t.Fatalf("chip %d: stats differ:\n got %+v\nwant %+v", i, gs, ws)
				}
			}
		})
	}
}
