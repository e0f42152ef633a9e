package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"chipkillpm/internal/rank"
)

// degradedRank builds a tiny but paper-shaped rank for the matrix cells:
// 1 bank x 4 rows x 512B rows = 256 blocks, 2 VLEWs per row per chip.
func degradedRank(t *testing.T, seed int64) *rank.Rank {
	t.Helper()
	r, err := rank.New(rank.PaperConfig(1, 4, 512, seed))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDegradedModeMatrix exercises degraded (remapped) mode over the full
// cross product of failed data chip x RS acceptance threshold x RBER band:
// after a chip failure and remap, every committed block must read back
// byte-for-byte, and writes must round-trip, at every cell. The threshold
// axis pins that degraded-mode correctness is independent of the runtime
// RS acceptance knob (degraded reads verify through striped VLEWs, not the
// per-block RS). The pre- bands drift the rank, plus one flipped survivor
// bit, before the remap instead of after it, with the chip dead at entry
// or still alive and dying after: the remap must correct the survivors
// before it encodes the striped code over them, or it stores the drift as
// data.
func TestDegradedModeMatrix(t *testing.T) {
	bands := []struct {
		name   string
		rber   float64
		before bool // drift lands before the remap, not after it
		live   bool // the chip is alive at entry and dies after it
	}{
		{"clean", 0, false, false},
		{"rber7e-5", 7e-5, false, false},
		{"rber2e-4", 2e-4, false, false},
		{"pre-rber7e-5-live", 7e-5, true, true},
		{"pre-rber7e-5-dead", 7e-5, true, false},
		{"pre-rber2e-4-live", 2e-4, true, true},
		{"pre-rber2e-4-dead", 2e-4, true, false},
	}
	thresholds := []int{0, 2, 4}

	for failedChip := 0; failedChip < 8; failedChip++ {
		for _, th := range thresholds {
			for _, band := range bands {
				failedChip, th, band := failedChip, th, band
				name := fmt.Sprintf("chip%d/threshold%d/%s", failedChip, th, band.name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					seed := int64(1000 + failedChip*100 + th*10)
					r := degradedRank(t, seed)
					c, err := NewController(r, Config{Threshold: th}, nil)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed * 7))
					ref := make(map[int64][]byte)
					for b := int64(0); b < r.Blocks(); b++ {
						data := make([]byte, 64)
						rng.Read(data)
						if err := c.WriteBlockInitial(b, data); err != nil {
							t.Fatal(err)
						}
						ref[b] = data
					}

					if band.before {
						r.InjectRetentionErrors(band.rber)
						loc := r.Locate(rng.Int63n(r.Blocks()))
						r.Chip((failedChip+1)%8).FlipDataBit(loc.Bank, loc.Row, loc.Col, 5)
					}
					if !band.live {
						r.FailChip(failedChip)
					}
					if err := c.EnterDegradedMode(failedChip); err != nil {
						t.Fatalf("EnterDegradedMode(%d): %v", failedChip, err)
					}
					if band.live {
						r.FailChip(failedChip)
					}
					if deg, ci := c.Degraded(); !deg || ci != failedChip {
						t.Fatalf("Degraded() = %v, %d; want true, %d", deg, ci, failedChip)
					}
					if !band.before {
						if n := r.InjectRetentionErrors(band.rber); band.rber > 0 && n == 0 {
							t.Logf("no bits flipped at rber=%g (rank is small)", band.rber)
						}
					}

					for b := int64(0); b < r.Blocks(); b++ {
						got, err := readBlock(c, b)
						if err != nil {
							t.Fatalf("block %d: %v", b, err)
						}
						if !bytes.Equal(got, ref[b]) {
							t.Fatalf("block %d: degraded read mismatch", b)
						}
					}

					// Writes must round-trip through the remapped layout,
					// including blocks whose slice lives on the remapped chip.
					for i := 0; i < 16; i++ {
						b := rng.Int63n(r.Blocks())
						data := make([]byte, 64)
						rng.Read(data)
						if err := c.WriteBlock(b, data); err != nil {
							t.Fatalf("degraded write block %d: %v", b, err)
						}
						ref[b] = data
						got, err := readBlock(c, b)
						if err != nil {
							t.Fatalf("degraded read-back block %d: %v", b, err)
						}
						if !bytes.Equal(got, data) {
							t.Fatalf("block %d: degraded write did not round-trip", b)
						}
					}
				})
			}
		}
	}
}

// TestDegradedModeParityCornerMatrix covers the parity-chip-failed corner
// across the same threshold x RBER grid: a failed parity chip cannot be
// remapped (degraded mode sacrifices the parity chip to host the failed
// data chip), so EnterDegradedMode must reject both the parity index and
// any remap attempted while parity is down; recovery instead goes through
// the boot scrub's parity rebuild, after which reads are clean.
func TestDegradedModeParityCornerMatrix(t *testing.T) {
	bands := []struct {
		name string
		rber float64
	}{
		{"clean", 0},
		{"rber7e-5", 7e-5},
		{"rber2e-4", 2e-4},
	}
	for _, th := range []int{0, 2, 4} {
		for _, band := range bands {
			th, band := th, band
			t.Run(fmt.Sprintf("threshold%d/%s", th, band.name), func(t *testing.T) {
				t.Parallel()
				seed := int64(9000 + th*10)
				r := degradedRank(t, seed)
				c, err := NewController(r, Config{Threshold: th}, nil)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed * 13))
				ref := make(map[int64][]byte)
				for b := int64(0); b < r.Blocks(); b++ {
					data := make([]byte, 64)
					rng.Read(data)
					if err := c.WriteBlockInitial(b, data); err != nil {
						t.Fatal(err)
					}
					ref[b] = data
				}

				if err := c.EnterDegradedMode(r.ParityChipIndex()); err == nil {
					t.Fatal("EnterDegradedMode accepted the parity chip index")
				}
				r.FailChip(r.ParityChipIndex())
				if err := c.EnterDegradedMode(0); err == nil {
					t.Fatal("EnterDegradedMode remapped with the parity chip down")
				}
				r.InjectRetentionErrors(band.rber)

				rep := c.BootScrub()
				if rep.Unrecoverable {
					t.Fatalf("scrub unrecoverable: %v", rep)
				}
				if len(rep.ChipsRebuilt) != 1 || rep.ChipsRebuilt[0] != r.ParityChipIndex() {
					t.Fatalf("expected parity rebuild, got %v", rep)
				}
				for b := int64(0); b < r.Blocks(); b++ {
					got, err := readBlock(c, b)
					if err != nil {
						t.Fatalf("block %d after parity rebuild: %v", b, err)
					}
					if !bytes.Equal(got, ref[b]) {
						t.Fatalf("block %d mismatch after parity rebuild", b)
					}
				}
			})
		}
	}
}
