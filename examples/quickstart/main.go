// Quickstart: the proposal's two error-correction paths on one block.
//
// This walkthrough builds a paper-shaped persistent-memory rank (8 data
// chips + 1 parity chip, 256B VLEWs with 22-bit-EC BCH, per-block
// RS(72,64)), writes a block, then demonstrates:
//
//  1. the runtime read path (Fig 9): opportunistic RS correction accepted
//     up to the 2-correction threshold,
//  2. the VLEW fallback when a block carries too many errors,
//  3. chip failure: erasure correction through the parity chip.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"chipkillpm/internal/core"
	"chipkillpm/internal/rank"
)

// main is a serial demo: fault injection runs with no concurrent
// readers.
//
//chipkill:rankwide
func main() {
	log.SetFlags(0)

	// A small rank: 2 banks x 8 rows x 1KB rows = 2048 blocks (128 KB).
	r, err := rank.New(rank.PaperConfig(2, 8, 1024, 42))
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := core.NewController(r, core.DefaultConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rank: %d blocks, storage overhead %.1f%% (paper: 27%%)\n\n",
		r.Blocks(), 100*r.StorageOverhead())

	// Write a block of real data.
	const blk = int64(123)
	data := []byte("persistent memory needs chipkill-correct too!............64bytes")[:64]
	if err := ctrl.WriteBlockInitial(blk, data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote block %d: %q\n\n", blk, data[:46])

	rng := rand.New(rand.NewSource(1))
	loc := r.Locate(blk)

	// --- 1. Runtime path: two random bit errors in two chips. ---
	for i := 0; i < 2; i++ {
		r.Chip(i).FlipDataBit(loc.Bank, loc.Row, loc.Col+rng.Intn(8), uint(rng.Intn(8)))
	}
	got := make([]byte, len(data))
	check(ctrl.ReadBlockInto(blk, got), got, data)
	st := ctrl.Stats()
	fmt.Println("2 bit errors: corrected opportunistically by the per-block RS")
	fmt.Printf("  RS-corrected reads: %d, VLEW fallbacks: %d\n\n",
		st.ReadsRSCorrected, st.ReadsVLEWFallback)

	// --- 2. Dense errors: threshold exceeded, VLEW fallback. ---
	for i := 0; i < 4; i++ { // 4 bad bytes in 4 chips > threshold 2
		r.Chip(i).FlipDataBit(loc.Bank, loc.Row, loc.Col+i, uint(i))
	}
	check(ctrl.ReadBlockInto(blk, got), got, data)
	st = ctrl.Stats()
	fmt.Println("4 byte errors: RS correction rejected (threshold 2), VLEWs fetched")
	fmt.Printf("  VLEW fallbacks: %d, bits corrected via VLEW: %d\n\n",
		st.ReadsVLEWFallback, st.BitsCorrectedVLEW)

	// --- 3. Chipkill: a whole chip dies. ---
	r.FailChip(3)
	check(ctrl.ReadBlockInto(blk, got), got, data)
	st = ctrl.Stats()
	fmt.Println("chip 3 failed: VLEW decode flags the dead chip, RS erasure-corrects")
	fmt.Printf("  chip failures corrected: %d\n\n", st.ChipFailuresCorrected)

	fmt.Println("all three paths returned bit-exact data")
}

func check(err error, got, want []byte) {
	if err != nil {
		log.Fatalf("read failed: %v", err)
	}
	if !bytes.Equal(got, want) {
		log.Fatalf("data corrupted: got %q", got)
	}
}
