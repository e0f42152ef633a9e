// Command fleetsim demonstrates the multi-rank fleet: band-interleaved
// placement over N chipkill ranks, telemetry-directed replication of hot
// bands, whole-rank failure containment, and repair-from-replica when a
// rank's guard convicts a chip (see internal/fleet and DESIGN.md §14).
//
//	fleetsim -scenario rankkill          # kill a rank: failover vs contained DUEs
//	fleetsim -scenario chiprepair        # convict a chip, replica VLEW copy vs RS erasure rebuild
//	fleetsim -scenario divergence        # corrupt a replica, anti-entropy heals it
//	fleetsim -scenario rankkill -ranks 4 -seed 9
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"chipkillpm/internal/fleet"
	"chipkillpm/internal/guard"
)

func main() {
	var (
		scenario = flag.String("scenario", "rankkill", "rankkill, chiprepair, or divergence")
		ranks    = flag.Int("ranks", 3, "rank count")
		banks    = flag.Int("banks", 2, "banks per rank")
		rows     = flag.Int("rows", 8, "rows per bank")
		rowBytes = flag.Int("rowbytes", 1024, "row data bytes per chip")
		seed     = flag.Int64("seed", 1, "seed for chips, probes, and workload")
		chip     = flag.Int("chip", 2, "chip to fault in the chiprepair scenario")
	)
	flag.Parse()

	f, err := fleet.New(fleet.Config{
		Ranks: *ranks, Banks: *banks, RowsPerBank: *rows, RowBytes: *rowBytes,
		Seed: *seed, Guard: guard.Config{Seed: *seed + 1},
		// Sweep aggressively so the divergence demo heals within a few
		// ticks; production-shaped configs sweep a band or two per tick.
		VerifyBandsPerTick: 64,
	})
	check(err)
	fmt.Printf("fleet: %d ranks, %d demand blocks, band = %d blocks\n",
		f.NumRanks(), f.Blocks(), f.BandBlocks())

	rng := rand.New(rand.NewSource(*seed + 2))
	want := make(map[int64][]byte)
	buf := make([]byte, f.BlockBytes())
	for b := int64(0); b < f.Blocks(); b++ {
		data := make([]byte, f.BlockBytes())
		rng.Read(data)
		check(f.WriteBlockInitial(b, data))
		want[b] = data
	}

	// Heat the first few bands of rank 0 so the replication policy picks
	// them up, then tick until they are mirrored.
	bb := f.BandBlocks()
	hot := []int64{0, int64(*ranks), int64(2 * *ranks)}
	for pass := 0; pass < 4; pass++ {
		for _, band := range hot {
			for i := int64(0); i < bb; i++ {
				check(f.ReadBlockInto(band*bb+i, buf))
			}
		}
	}
	for i := 0; i < 4; i++ {
		check(f.Tick())
	}
	st := f.Stats()
	fmt.Printf("replication policy mirrored %d bands (active replicas: %d)\n",
		st.BandsReplicated, st.ActiveReplicas)

	switch *scenario {
	case "rankkill":
		fmt.Println("killing rank 0 outright")
		f.KillRank(0)
		served, contained, wrong := 0, 0, 0
		for b := int64(0); b < f.Blocks(); b++ {
			switch err := f.ReadBlockInto(b, buf); {
			case err == nil:
				served++
				if string(buf) != string(want[b]) {
					wrong++
				}
			case errors.Is(err, fleet.ErrRankFailed):
				contained++
			default:
				check(err)
			}
		}
		st = f.Stats()
		fmt.Printf("reads: %d served (%d via replica failover), %d contained DUEs, %d wrong\n",
			served, st.FailoverReads, contained, wrong)
		if wrong > 0 {
			fmt.Println("FAIL: silent corruption")
			os.Exit(1)
		}
		fmt.Printf("ranks alive: %d/%d — every lost byte was reported, none was faked\n",
			st.RanksAlive, st.Ranks)

	case "chiprepair":
		fmt.Printf("killing chip %d of rank 0; the guard must convict and the fleet repair\n", *chip)
		f.Engine(0).Quiesce(func() { f.Rank(0).FailChip(*chip) })
		for i := 0; i < 600 && f.Supervisor(0).Report().ExternalRepairs == 0; i++ {
			for j := 0; j < 8; j++ {
				b := rng.Int63n(f.Blocks())
				check(f.ReadBlockInto(b, buf))
			}
			check(f.Tick())
		}
		reps := f.Repairs()
		if len(reps) == 0 {
			fmt.Println("FAIL: no repair ran")
			os.Exit(1)
		}
		r := reps[0]
		fmt.Printf("repaired rank %d chip %d: %d bands copied from replicas, %d rebuilt by RS erasure\n",
			r.Rank, r.Chip, r.ReplicaBands, r.ErasureBands)
		fmt.Printf("cost: replica VLEW copy %.0f ns/block vs erasure rebuild %.0f ns/block\n",
			r.ReplicaNSPerBlock(), r.ErasureNSPerBlock())
		verify(f, want, buf)

	case "divergence":
		band := hot[0]
		rk, local, ok := f.ReplicaLocation(band * bb)
		if !ok {
			fmt.Println("FAIL: hot band was not replicated")
			os.Exit(1)
		}
		fmt.Printf("corrupting band %d's replica on rank %d in place\n", band, rk)
		bogus := make([]byte, f.BlockBytes())
		check(f.Engine(rk).WriteBlockInitial(local, bogus))
		for i := 0; i < 8 && f.Stats().DivergenceFixes == 0; i++ {
			check(f.Tick())
		}
		st = f.Stats()
		fmt.Printf("anti-entropy sweep healed %d diverged blocks\n", st.DivergenceFixes)
		fmt.Println("killing the primary rank to prove the healed replica serves reads")
		f.KillRank(f.RankOf(band * bb))
		for i := int64(0); i < bb; i++ {
			b := band*bb + i
			check(f.ReadBlockInto(b, buf))
			if string(buf) != string(want[b]) {
				fmt.Printf("FAIL: block %d wrong after failover\n", b)
				os.Exit(1)
			}
		}
		fmt.Println("all failover reads byte-exact")

	default:
		check(fmt.Errorf("unknown scenario %q", *scenario))
	}
	fmt.Println("OK")
}

// verify reads every servable block back against the oracle.
func verify(f *fleet.Fleet, want map[int64][]byte, buf []byte) {
	wrong := 0
	for b := int64(0); b < f.Blocks(); b++ {
		if !f.Servable(b) {
			continue
		}
		if err := f.ReadBlockInto(b, buf); err != nil {
			fmt.Printf("FAIL: block %d: %v\n", b, err)
			os.Exit(1)
		}
		if string(buf) != string(want[b]) {
			wrong++
		}
	}
	if wrong > 0 {
		fmt.Printf("FAIL: %d blocks wrong\n", wrong)
		os.Exit(1)
	}
	fmt.Println("full sweep byte-exact")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}
