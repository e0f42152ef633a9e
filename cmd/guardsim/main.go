// Command guardsim demonstrates the self-healing runtime: the
// internal/guard health supervisor watching a live engine, discriminating
// transient faults from chip kills, migrating to the Sec V-E striped
// layout online, and recovering a crashed migration from its journal.
//
//	guardsim -scenario chipkill          # kill a chip, watch detect->migrate->degraded
//	guardsim -scenario storm             # dead VLEW on a healthy chip: probe and acquit
//	guardsim -scenario crash             # power loss mid-migration, journal recovery
//	guardsim -scenario chipkill -chip 5 -banks 4 -seed 9
package main

import (
	"flag"
	"fmt"
	"os"

	"chipkillpm/internal/core"
	"chipkillpm/internal/engine"
	"chipkillpm/internal/guard"
	"chipkillpm/internal/rank"
)

func main() {
	var (
		scenario = flag.String("scenario", "chipkill", "chipkill, storm, or crash")
		chip     = flag.Int("chip", 2, "chip to fault")
		banks    = flag.Int("banks", 4, "rank banks")
		rows     = flag.Int("rows", 8, "rows per bank")
		rowBytes = flag.Int("rowbytes", 1024, "row data bytes per chip")
		seed     = flag.Int64("seed", 1, "seed for rank init, workload, and probes")
		ticks    = flag.Int("ticks", 2000, "supervisor tick budget")
	)
	flag.Parse()

	r, err := rank.New(rank.PaperConfig(*banks, *rows, *rowBytes, *seed))
	check(err)
	eng, err := engine.New(r, engine.Config{Core: core.DefaultConfig()})
	check(err)
	fmt.Printf("rank: %d blocks, %d chips + parity; band = %d blocks\n",
		eng.Blocks(), r.Config().DataChips, eng.BandBlocks())

	buf := make([]byte, eng.BlockBytes())
	for b := int64(0); b < eng.Blocks(); b++ {
		fill(buf, b)
		check(eng.WriteBlockInitial(b, buf))
	}

	region := guard.NewRegion(guard.RegionSizeFor(eng))
	sup, err := guard.New(eng, region, guard.Config{Seed: *seed})
	check(err)

	switch *scenario {
	case "chipkill":
		fmt.Printf("killing chip %d under load\n", *chip)
		eng.Quiesce(func() { r.FailChip(*chip) })
		run(eng, sup, *ticks, guard.StateDegraded)
	case "storm":
		fmt.Printf("planting a dead VLEW on healthy chip %d (24 bit flips)\n", *chip)
		loc := r.Locate(eng.Blocks() / 2)
		eng.Quiesce(func() {
			c := r.Chip(*chip)
			for k := 0; k < r.Config().ChipAccessBytes; k++ {
				for _, bit := range []uint{0, 3, 6} {
					c.FlipDataBit(loc.Bank, loc.Row, loc.Col+k, bit)
				}
			}
		})
		for i := 0; i < 3; i++ { // the storm: reads of the broken word
			check(eng.ReadBlockInto(eng.Blocks()/2, buf))
		}
		run(eng, sup, *ticks, guard.StateHealthy)
	case "crash":
		fmt.Printf("killing chip %d, then power loss mid-migration\n", *chip)
		eng.Quiesce(func() { r.FailChip(*chip) })
		runUntil(eng, sup, *ticks, func() bool { return eng.Stats().BandsMigrated >= 8 })
		region.TearNextWrite(20)
		if err := sup.Tick(); err != nil {
			fmt.Printf("CRASH: %v\n", err)
		}
		fmt.Printf("reboot: %d bands on rank, journal recovering...\n", eng.Stats().BandsMigrated)
		//chipkill:allow rankwide simulated power loss; old engine is discarded before reboot
		r.CloseAllRows()
		region.Reboot()
		eng, err = engine.New(r, engine.Config{Core: core.DefaultConfig()})
		check(err)
		sup, err = guard.New(eng, region, guard.Config{Seed: *seed + 1})
		check(err)
		fmt.Printf("recovered: %s (resumed=%v)\n", sup.State(), sup.Report().MigrationResumed)
		run(eng, sup, *ticks, guard.StateDegraded)
	default:
		check(fmt.Errorf("unknown scenario %q", *scenario))
	}

	// Final verification: every block byte-exact.
	bad := 0
	want := make([]byte, eng.BlockBytes())
	for b := int64(0); b < eng.Blocks(); b++ {
		check(eng.ReadBlockInto(b, buf))
		fill(want, b)
		if string(buf) != string(want) {
			bad++
		}
	}
	rep := sup.Report()
	st := eng.Stats()
	fmt.Printf("final: state=%s raised=%d cleared=%d verdicts=%d bands=%d due=%d corrupt=%d\n",
		rep.State, rep.SuspicionsRaised, rep.SuspicionsCleared, rep.Verdicts,
		st.BandsMigrated, st.Uncorrectable, bad)
	if bad > 0 || st.Uncorrectable > 0 {
		os.Exit(1)
	}
}

// run ticks the supervisor, narrating state transitions, until it reaches
// want (or exhausts the budget).
func run(eng *engine.Engine, sup *guard.Supervisor, ticks int, want guard.State) {
	runUntil(eng, sup, ticks, func() bool { return sup.State() == want && sup.Report().SuspicionsRaised > 0 })
}

func runUntil(eng *engine.Engine, sup *guard.Supervisor, ticks int, done func() bool) {
	buf := make([]byte, eng.BlockBytes())
	last := sup.State()
	for i := 0; i < ticks && !done(); i++ {
		// Demand traffic between ticks: the supervisor works online.
		for j := int64(0); j < 4; j++ {
			b := (int64(i)*37 + j*101) % eng.Blocks()
			if err := eng.ReadBlockInto(b, buf); err != nil {
				fmt.Printf("tick %d: read %d: %v\n", i, b, err)
			}
		}
		if err := sup.Tick(); err != nil {
			fmt.Printf("tick %d: %v\n", i, err)
			return
		}
		if st := sup.State(); st != last {
			fmt.Printf("tick %4d: %s -> %s\n", i, last, st)
			last = st
		}
	}
}

func fill(buf []byte, block int64) {
	for i := range buf {
		buf[i] = byte(block>>uint(8*(i&7))) ^ byte(i)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "guardsim:", err)
		os.Exit(1)
	}
}
