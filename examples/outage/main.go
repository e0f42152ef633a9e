// Outage: data survival across a long power outage, with and without a
// chip failure — the boot-time half of the decoupled scheme (Sec V-B).
//
// The example fills a persistent-memory rank with data, simulates a one-
// week outage on 3-bit PCM (RBER grows to 1e-3 with no refresh), then
// boots: the controller scrubs every VLEW, correcting the accumulated bit
// errors, and — in the second act — detects a chip that died during the
// outage and rebuilds it through Reed-Solomon erasure correction.
//
// Run with: go run ./examples/outage
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"chipkillpm/internal/core"
	"chipkillpm/internal/nvram"
	"chipkillpm/internal/rank"
)

func main() {
	log.SetFlags(0)

	fmt.Println("=== Act 1: a week without power ===")
	surviveOutage(false)
	fmt.Println()
	fmt.Println("=== Act 2: the outage kills chip 5 ===")
	surviveOutage(true)
}

// surviveOutage is a serial demo act: fault injection and the boot
// scrub run with no concurrent readers.
//
//chipkill:rankwide
func surviveOutage(chipDies bool) {
	r, err := rank.New(rank.PaperConfig(2, 16, 1024, 7))
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := core.NewController(r, core.DefaultConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}

	// Fill the memory with data we will want back.
	rng := rand.New(rand.NewSource(99))
	ref := make([][]byte, r.Blocks())
	for b := int64(0); b < r.Blocks(); b++ {
		ref[b] = make([]byte, 64)
		rng.Read(ref[b])
		if err := ctrl.WriteBlockInitial(b, ref[b]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("filled %d blocks (%d KB) of persistent memory\n",
		r.Blocks(), r.Blocks()*64/1024)

	// The outage: one week unrefreshed 3-bit PCM.
	week := nvram.Week
	rber := nvram.PCM3.RBER(week)
	flips := r.InjectRetentionErrors(rber)
	fmt.Printf("outage: %s without refresh on %s -> RBER %.1e, %d bits flipped\n",
		nvram.FormatInterval(week), nvram.PCM3.Name, rber, flips)
	if chipDies {
		r.FailChip(5)
		fmt.Println("outage: chip 5 suffered a chip-level failure")
	}

	// Boot: scrub everything.
	rep := ctrl.BootScrub()
	fmt.Printf("boot scrub: %d VLEWs decoded, %d bit errors corrected\n",
		rep.VLEWsScrubbed, rep.BitsCorrected)
	if len(rep.ChipsFailed) > 0 {
		fmt.Printf("boot scrub: chips %v uncorrectable -> rebuilt %v (%d blocks) via RS erasure\n",
			rep.ChipsFailed, rep.ChipsRebuilt, rep.BlocksRebuilt)
	}
	if rep.Unrecoverable {
		log.Fatal("boot scrub: UNRECOVERABLE — this should not happen with <= 1 failed chip")
	}

	// Verify every block bit-exactly.
	bad := 0
	got := make([]byte, 64)
	for b := int64(0); b < r.Blocks(); b++ {
		if err := ctrl.ReadBlockInto(b, got); err != nil || !bytes.Equal(got, ref[b]) {
			bad++
		}
	}
	if bad > 0 {
		log.Fatalf("%d blocks lost", bad)
	}
	fmt.Printf("verified: all %d blocks recovered bit-exactly\n", r.Blocks())

	// For contrast: the bit-error-only baseline and the same outage.
	baseline, err := core.NewBitOnlyMemory(r.Blocks(), 7)
	if err != nil {
		log.Fatal(err)
	}
	for b := int64(0); b < baseline.Blocks(); b++ {
		baseline.Write(b, ref[b])
	}
	baseline.InjectRetentionErrors(rber)
	if chipDies {
		baseline.FailChipSlice(5)
	}
	baseBad := 0
	for b := int64(0); b < baseline.Blocks(); b++ {
		got, err := baseline.Read(b)
		if err != nil || !bytes.Equal(got, ref[b]) {
			baseBad++
		}
	}
	if chipDies {
		fmt.Printf("baseline (14-EC BCH, no chipkill): %d of %d blocks LOST — permanent data corruption\n",
			baseBad, baseline.Blocks())
	} else {
		fmt.Printf("baseline (14-EC BCH, no chipkill): %d blocks lost (bit errors alone are survivable)\n",
			baseBad)
	}
}
