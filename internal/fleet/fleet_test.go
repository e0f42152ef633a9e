package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"chipkillpm/internal/guard"
)

// testConfig is the small-but-real geometry most tests run: 3 ranks of
// 2 banks x 4 rows x 1KB rows = 1024 blocks/rank (32 bands), 8 of them
// replica pool, so the fleet serves 24*32*3 = 2304 blocks.
func testConfig() Config {
	return Config{
		Ranks:        3,
		Banks:        2,
		RowsPerBank:  4,
		RowBytes:     1024,
		Seed:         42,
		ReplicaBands: 8,
	}
}

// pattern fills dst with a deterministic per-block byte pattern.
func pattern(block int64, dst []byte) {
	x := uint64(block)*0x9e3779b97f4a7c15 + 0x1234567
	for i := range dst {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst[i] = byte(x)
	}
}

// fill writes the deterministic pattern to every fleet block.
func fill(t *testing.T, f *Fleet) {
	t.Helper()
	buf := make([]byte, f.BlockBytes())
	for b := int64(0); b < f.Blocks(); b++ {
		pattern(b, buf)
		if err := f.WriteBlockInitial(b, buf); err != nil {
			t.Fatalf("initial write %d: %v", b, err)
		}
	}
}

// checkBlock asserts one block reads back its pattern.
func checkBlock(t *testing.T, f *Fleet, b int64) {
	t.Helper()
	want := make([]byte, f.BlockBytes())
	pattern(b, want)
	got, err := f.ReadBlock(b)
	if err != nil {
		t.Fatalf("read %d: %v", b, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("block %d read wrong bytes", b)
	}
}

func TestSentinelsErrorsIs(t *testing.T) {
	wrapped := fmt.Errorf("fleet: read block 7: rank 1 down, no live replica: %w", ErrRankFailed)
	if !errors.Is(wrapped, ErrRankFailed) {
		t.Fatal("wrapped ErrRankFailed not matched by errors.Is")
	}
	if errors.Is(wrapped, ErrNoReplica) {
		t.Fatal("ErrRankFailed matched ErrNoReplica")
	}
	wrapped = fmt.Errorf("fleet: repair rank 0 chip 2: %w", ErrNoReplica)
	if !errors.Is(wrapped, ErrNoReplica) {
		t.Fatal("wrapped ErrNoReplica not matched by errors.Is")
	}
	if !Contained(wrapped) {
		t.Fatal("Contained() false for a sentinel error")
	}
	if Contained(errors.New("something else")) {
		t.Fatal("Contained() true for a foreign error")
	}
}

func TestPlacementInterleavesBandsAcrossRanks(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(f.NumRanks())
	seen := make(map[int]int64)
	for b := int64(0); b < f.Blocks(); b++ {
		rk, local := f.locate(b)
		seen[rk]++
		// Round-trip through the inverse.
		band := b / f.BandBlocks()
		if got := f.fleetBand(rk, local/f.BandBlocks()); got != band {
			t.Fatalf("block %d: band inverse %d, want %d", b, got, band)
		}
		if want := int(band % n); rk != want {
			t.Fatalf("block %d on rank %d, want %d", b, rk, want)
		}
		if local >= f.poolBase {
			t.Fatalf("block %d placed into the replica pool (local %d)", b, local)
		}
	}
	per := f.Blocks() / n
	for rk, cnt := range seen {
		if cnt != per {
			t.Fatalf("rank %d serves %d blocks, want %d", rk, cnt, per)
		}
	}
}

func TestReplicaOnDistinctRank(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	for band := int64(0); band < 6; band++ {
		if err := f.ReplicateBand(band); err != nil {
			t.Fatalf("replicate band %d: %v", band, err)
		}
		b := band * f.BandBlocks()
		rr, _, ok := f.ReplicaLocation(b)
		if !ok {
			t.Fatalf("band %d not active after ReplicateBand", band)
		}
		if rr == f.RankOf(b) {
			t.Fatalf("band %d replica landed on its own rank %d", band, rr)
		}
		if !f.BandReplicated(b) {
			t.Fatalf("band %d not reported replicated", band)
		}
	}
	if got := f.Stats().ActiveReplicas; got != 6 {
		t.Fatalf("ActiveReplicas = %d, want 6", got)
	}
}

func TestFillAndReadBack(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	for b := int64(0); b < f.Blocks(); b++ {
		checkBlock(t, f, b)
	}
}

func TestWriteThroughKeepsReplicaCoherent(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	if err := f.ReplicateBand(0); err != nil {
		t.Fatal(err)
	}
	b := int64(3) // inside band 0
	data := make([]byte, f.BlockBytes())
	pattern(9999, data)
	if err := f.WriteBlock(b, data); err != nil {
		t.Fatalf("write-through: %v", err)
	}
	rr, local, ok := f.ReplicaLocation(b)
	if !ok {
		t.Fatal("band 0 lost its replica")
	}
	got := make([]byte, f.BlockBytes())
	if err := f.Engine(rr).ReadBlockInto(local, got); err != nil {
		t.Fatalf("replica read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("replica diverged from acknowledged write")
	}
}

// TestFleetDemandAllocsZero pins the fleet's steady-state demand paths at
// zero allocations per operation: a primary read, a write to an
// unreplicated band, and a write-through to a replicated band (whose
// replica leg is the engine's raw WriteBlockInitial).
func TestFleetDemandAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	if err := f.ReplicateBand(0); err != nil {
		t.Fatal(err)
	}
	if !f.BandReplicated(0) || f.BandReplicated(f.BandBlocks()) {
		t.Fatal("want band 0 replicated and band 1 not")
	}
	buf := make([]byte, f.BlockBytes())
	pattern(9999, buf)
	var i int64
	for _, tc := range []struct {
		name string
		op   func(block int64) error
		base int64 // first block of the band the case runs in
	}{
		{"primary ReadBlockInto", func(b int64) error { return f.ReadBlockInto(b, buf) }, f.BandBlocks()},
		{"unreplicated WriteBlock", func(b int64) error { return f.WriteBlock(b, buf) }, f.BandBlocks()},
		{"replicated write-through WriteBlock", func(b int64) error { return f.WriteBlock(b, buf) }, 0},
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			if err := tc.op(tc.base + i%f.BandBlocks()); err != nil {
				t.Fatal(err)
			}
			i += 7
		}); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}

func TestRankKillContainment(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	// Bands 0 and 3 live on rank 0 (3 ranks, round-robin).
	for _, band := range []int64{0, 3} {
		if err := f.ReplicateBand(band); err != nil {
			t.Fatal(err)
		}
	}
	f.KillRank(0)
	if !f.RankKilled(0) {
		t.Fatal("rank 0 not marked killed")
	}

	// Replicated band on the dead rank: reads fail over, byte-exact.
	checkBlock(t, f, 0*f.BandBlocks()+5)
	checkBlock(t, f, 3*f.BandBlocks()+17)
	// Unreplicated band on the dead rank: contained, typed error.
	_, err = f.ReadBlock(6 * f.BandBlocks())
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("unreplicated dead read: %v, want ErrRankFailed", err)
	}
	// Other ranks unaffected.
	checkBlock(t, f, 1*f.BandBlocks()+2)

	// Writes: replicated band acknowledges on the replica alone...
	data := make([]byte, f.BlockBytes())
	pattern(777, data)
	wb := 0*f.BandBlocks() + 5
	if err := f.WriteBlock(wb, data); err != nil {
		t.Fatalf("failover write: %v", err)
	}
	got, err := f.ReadBlock(wb)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("failover write not readable: %v", err)
	}
	// ...an unreplicated band rejects, typed.
	if err := f.WriteBlock(6*f.BandBlocks(), data); !errors.Is(err, ErrRankFailed) {
		t.Fatalf("unreplicated dead write: %v, want ErrRankFailed", err)
	}

	s := f.Stats()
	if s.RanksAlive != 2 || s.RankKills != 1 {
		t.Fatalf("stats: alive %d kills %d", s.RanksAlive, s.RankKills)
	}
	if s.FailoverReads == 0 || s.FailoverWrites != 1 || s.ContainedDUEs == 0 || s.RejectedWrites != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if f.Servable(6 * f.BandBlocks()) {
		t.Fatal("unreplicated dead band reported servable")
	}
	if !f.Servable(0*f.BandBlocks() + 1) {
		t.Fatal("replicated dead band reported unservable")
	}
}

func TestReadRepairHealsPrimaryDUE(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	if err := f.ReplicateBand(0); err != nil {
		t.Fatal(err)
	}
	b := int64(7)
	rk, local := f.locate(b)
	// Smash the primary copy beyond RS help: raw garbage data with an
	// inconsistent check word.
	garbage := make([]byte, f.BlockBytes())
	check := make([]byte, f.Rank(rk).Config().ChipAccessBytes)
	pattern(31337, garbage)
	pattern(31338, check)
	f.Engine(rk).Quiesce(func() {
		f.Rank(rk).CloseAllRows()
		f.Rank(rk).WriteBlockRaw(local, garbage, check)
	})
	if err := f.Engine(rk).ReadBlockInto(local, garbage); err == nil {
		t.Skip("corruption pattern decoded cleanly; scenario lost its signal")
	}

	checkBlock(t, f, b) // fleet read must heal via the replica
	if got := f.Stats().ReadRepairs; got != 1 {
		t.Fatalf("ReadRepairs = %d, want 1", got)
	}
	// And the primary copy itself is healed, not just the served bytes.
	want := make([]byte, f.BlockBytes())
	pattern(b, want)
	got := make([]byte, f.BlockBytes())
	if err := f.Engine(rk).ReadBlockInto(local, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("primary not healed: %v", err)
	}
}

func TestAntiEntropyHealsDivergedReplica(t *testing.T) {
	cfg := testConfig()
	cfg.VerifyBandsPerTick = 64 // sweep everything each tick
	cfg.ReplicatePerTick = -1   // policy off; bands replicate explicitly
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	if err := f.ReplicateBand(1); err != nil {
		t.Fatal(err)
	}
	b := 1*f.BandBlocks() + 4
	rr, local, _ := f.ReplicaLocation(b)
	bogus := make([]byte, f.BlockBytes())
	pattern(555, bogus)
	if err := f.Engine(rr).WriteBlockInitial(local, bogus); err != nil {
		t.Fatal(err)
	}
	if err := f.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().DivergenceFixes; got != 1 {
		t.Fatalf("DivergenceFixes = %d, want 1", got)
	}
	got := make([]byte, f.BlockBytes())
	want := make([]byte, f.BlockBytes())
	pattern(b, want)
	if err := f.Engine(rr).ReadBlockInto(local, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replica not healed: %v", err)
	}
}

func TestRepairChipFromReplica(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	// Replicate some of rank 0's bands; the rest must take the erasure
	// path so the report carries both timings.
	for _, band := range []int64{0, 3, 6, 9} {
		if err := f.ReplicateBand(band); err != nil {
			t.Fatal(err)
		}
	}
	const chip = 2
	f.Engine(0).Quiesce(func() { f.Rank(0).FailChip(chip) })
	if err := f.RepairChip(0, chip); err != nil {
		t.Fatalf("RepairChip: %v", err)
	}
	reps := f.Repairs()
	if len(reps) != 1 {
		t.Fatalf("%d repair reports, want 1", len(reps))
	}
	r := reps[0]
	if r.ReplicaBands != 4 {
		t.Fatalf("ReplicaBands = %d, want 4", r.ReplicaBands)
	}
	if r.ErasureBands == 0 || r.ErasureBlocks == 0 {
		t.Fatalf("erasure path unused: %+v", r)
	}
	if r.Unrecoverable {
		t.Fatalf("repair left unrecoverable blocks: %+v", r)
	}
	if f.Rank(0).FailedChips() != 0 {
		t.Fatal("chip still failed after repair")
	}
	for b := int64(0); b < f.Blocks(); b++ {
		checkBlock(t, f, b)
	}
}

func TestRepairChipDeclinesWithoutReplica(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	f.Engine(1).Quiesce(func() { f.Rank(1).FailChip(4) })
	if err := f.RepairChip(1, 4); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("repair with no replicas: %v, want ErrNoReplica", err)
	}
	// Parity chips always repair locally (re-encode) — no replica needed.
	p := f.Rank(2).ParityChipIndex()
	f.Engine(2).Quiesce(func() { f.Rank(2).FailChip(p) })
	if err := f.RepairChip(2, p); err != nil {
		t.Fatalf("parity repair: %v", err)
	}
	for b := int64(0); b < f.Blocks(); b++ {
		if f.RankOf(b) == 2 {
			checkBlock(t, f, b)
		}
	}
}

// TestGuardConvictionTriggersFleetRepair closes the full loop: a chip
// dies, demand traffic feeds the rank's guard telemetry, the supervisor
// suspects, probes, convicts — and the fleet repairs the chip in place
// from replicas, so the rank never migrates to degraded mode.
func TestGuardConvictionTriggersFleetRepair(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicatePerTick = -1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	for _, band := range []int64{0, 3, 6, 9, 12, 15} {
		if err := f.ReplicateBand(band); err != nil {
			t.Fatal(err)
		}
	}
	const chip = 2
	f.Engine(0).Quiesce(func() { f.Rank(0).FailChip(chip) })

	buf := make([]byte, f.BlockBytes())
	sup := f.Supervisor(0)
	for i := 0; i < 400 && sup.Report().ExternalRepairs == 0; i++ {
		// Demand reads on rank 0 keep the telemetry signal alive.
		for j := int64(0); j < 8; j++ {
			b := (j * 3) * f.BandBlocks() % f.Blocks()
			if f.RankOf(b) != 0 {
				continue
			}
			if err := f.ReadBlockInto(b+j, buf); err != nil {
				t.Fatalf("demand read: %v", err)
			}
		}
		if err := f.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	rep := sup.Report()
	if rep.ExternalRepairs != 1 || rep.Verdicts != 1 {
		t.Fatalf("supervisor never repaired externally: %+v", rep)
	}
	if rep.State != guard.StateHealthy {
		t.Fatalf("supervisor state %v after external repair, want healthy", rep.State)
	}
	if d, _ := f.Engine(0).Degraded(); d {
		t.Fatal("rank went degraded despite replica repair")
	}
	if f.Engine(0).Migrating() != nil {
		t.Fatal("migration started despite replica repair")
	}
	if got := f.Stats().ChipRepairs; got != 1 {
		t.Fatalf("ChipRepairs = %d, want 1", got)
	}
	for b := int64(0); b < f.Blocks(); b++ {
		checkBlock(t, f, b)
	}
}
