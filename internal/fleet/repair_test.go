package fleet

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"chipkillpm/internal/core"
)

// repairFleet builds a filled test fleet with explicit replicas only:
// rank 0's bands 0 and 3 mirror onto rank 1, and rank 2's bands 2 and 5
// onto rank 0's pool, so a rank-0 repair runs the replica path, the
// erasure path over unreplicated bands, and the erasure path over a pool
// holding live mirrors.
func repairFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	cfg.ReplicatePerTick = -1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, f)
	for _, band := range []int64{0, 3, 2, 5} {
		if err := f.ReplicateBand(band); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestRepairChipMatchesNeverFailedTwin is the repair's oracle, after
// core's TestRebuildMatchesNeverFailedTwin: two identically seeded and
// drifted fleets, one chip failed and repaired on the first, and every
// chip of the repaired rank must then hold exactly the cells — data and
// VLEW code — of the twin, whose drift its own scrub corrects. A demand
// read could hide a wrong slice of the chip behind RS correction.
func TestRepairChipMatchesNeverFailedTwin(t *testing.T) {
	for _, chip := range []int{3, 8} {
		build := func() *Fleet {
			f := repairFleet(t, testConfig())
			f.Engine(0).Quiesce(func() { f.Rank(0).InjectRetentionErrors(1e-3) })
			return f
		}
		failed, twin := build(), build()
		failed.Engine(0).Quiesce(func() { failed.Rank(0).FailChip(chip) })
		if err := failed.RepairChip(0, chip); err != nil {
			t.Fatalf("chip %d: RepairChip: %v", chip, err)
		}
		rep := failed.Repairs()[0]
		copied := 2 // bands 0 and 3; the parity chip is never copied
		if rep.Parity {
			copied = 0
		}
		if rep.ReplicaBands != copied || int64(rep.ReplicaBands+rep.ErasureBands)*failed.BandBlocks() != failed.Rank(0).Blocks() {
			t.Fatalf("chip %d: paths %+v", chip, rep)
		}
		if trep := twin.Engine(0).BootScrub(); trep.Unrecoverable || len(trep.ChipsFailed) != 0 {
			t.Fatalf("twin scrub: %v", trep)
		}
		for _, f := range []*Fleet{failed, twin} {
			f.Engine(0).Quiesce(func() { f.Rank(0).CloseAllRows() })
		}
		for ci := 0; ci < failed.Rank(0).NumChips(); ci++ {
			if !bytes.Equal(failed.Rank(0).Chip(ci).CellArray(), twin.Rank(0).Chip(ci).CellArray()) {
				t.Fatalf("repaired chip %d: chip %d cells differ from the never-failed twin", chip, ci)
			}
		}
	}
}

// TestRepairChipSurvivorBeyondCode flips 40 bits (t = 22) into one
// survivor VLEW and fails another chip. With the chip erased, RS(72,64)
// has no symbol left to notice the damage, so a replicated band must be
// copied from its replica, and an unreplicated one must fail the repair
// rather than be rebuilt wrong: its blocks may then err, never read back
// wrong bytes.
func TestRepairChipSurvivorBeyondCode(t *testing.T) {
	for _, tc := range []struct {
		name string
		band int64 // a rank-0 band
	}{{"replicated", 3}, {"unreplicated", 6}} {
		t.Run(tc.name, func(t *testing.T) {
			f := repairFleet(t, testConfig())
			const dead, rotten = 2, 5
			g := f.Rank(0).Config().Geometry
			loc := core.SpanLoc(g, rotten, tc.band/int64(f.NumRanks()))
			f.Engine(0).Quiesce(func() {
				f.Rank(0).CloseAllRows()
				for i := 0; i < 40; i++ {
					f.Rank(0).Chip(rotten).FlipDataBit(loc.Bank, loc.Row, loc.V*g.VLEWDataBytes+6*i, uint(i))
				}
				f.Rank(0).FailChip(dead)
			})
			err := f.RepairChip(0, dead)
			first := tc.band * f.BandBlocks()
			if f.BandReplicated(first) {
				if err != nil {
					t.Fatalf("RepairChip: %v", err)
				}
				for b := first; b < first+f.BandBlocks(); b++ {
					checkBlock(t, f, b)
				}
				return
			}
			if !errors.Is(err, ErrNoReplica) || !f.Repairs()[0].Unrecoverable {
				t.Fatalf("RepairChip = %v, report %+v; want an unrecoverable repair", err, f.Repairs()[0])
			}
			want, got := make([]byte, f.BlockBytes()), make([]byte, f.BlockBytes())
			for b := first; b < first+f.BandBlocks(); b++ {
				pattern(b, want)
				if err := f.ReadBlockInto(b, got); err == nil && !bytes.Equal(got, want) {
					t.Fatalf("block %d read back wrong bytes without an error", b)
				}
			}
		})
	}
}

// TestRepairChipWithAnotherChipFailed repairs a chip of a rank on which
// a second chip has failed too. ScrubVLEWs does not scan failed chips,
// and RS(72,64) has no symbol left to notice the second chip's garbage,
// so every erasure band is lost: the repair must report that and fail
// the chip again, and no block of the rank may read back wrong bytes
// without an error.
func TestRepairChipWithAnotherChipFailed(t *testing.T) {
	f := repairFleet(t, testConfig())
	f.Engine(0).Quiesce(func() {
		f.Rank(0).FailChip(2)
		f.Rank(0).FailChip(5)
	})
	err := f.RepairChip(0, 2)
	if !errors.Is(err, ErrNoReplica) || !f.Repairs()[0].Unrecoverable {
		t.Fatalf("RepairChip = %v, report %+v; want an unrecoverable repair", err, f.Repairs()[0])
	}
	if f.Rank(0).Chip(2).Healthy() {
		t.Fatal("unrecoverable repair left chip 2 healthy")
	}
	want, got := make([]byte, f.BlockBytes()), make([]byte, f.BlockBytes())
	for b := int64(0); b < f.Blocks(); b++ {
		pattern(b, want)
		if err := f.ReadBlockInto(b, got); err == nil && !bytes.Equal(got, want) {
			t.Fatalf("block %d read back wrong bytes without an error", b)
		}
	}
}

// TestRepairChipUnderReplicatedBandWrites repairs rank 0 while writers
// stream through its replicated bands 0 and 3. A writer that holds a
// band's mutex may be parked on the repair's quiesce, or past it and
// writing the replica, so the copy must leave that band to erasure; the
// first repair holds band 0's mutex itself to take that path for sure.
// Every block must then read its last acknowledged write, and both ranks'
// cells — the repaired primary and the replica pool — must equal those of
// a never-failed twin given the same final writes. Run it with -race.
func TestRepairChipUnderReplicatedBandWrites(t *testing.T) {
	f := repairFleet(t, testConfig())
	f.bands[0].mu.Lock()
	f.Engine(0).Quiesce(func() { f.Rank(0).FailChip(0) })
	err := f.RepairChip(0, 0)
	f.bands[0].mu.Unlock()
	if err != nil {
		t.Fatalf("RepairChip: %v", err)
	}
	if rep := f.Repairs()[0]; rep.ReplicaBands != 1 {
		t.Fatalf("with band 0 held the repair copied %d bands, want 1 (band 3)", rep.ReplicaBands)
	}

	bands := []int64{0, 3}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	shadows := make([]map[int64][]byte, len(bands))
	errs := make([]error, len(bands))
	for w, band := range bands {
		shadows[w] = make(map[int64][]byte)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(band + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := band*f.BandBlocks() + rng.Int63n(f.BandBlocks())
				data := make([]byte, f.BlockBytes())
				rng.Read(data)
				if err := f.WriteBlock(b, data); err != nil {
					errs[w] = err
					return
				}
				shadows[w][b] = data
			}
		}()
	}
	declined := 0
	var repErr error
	for chip := 1; chip < 8 && repErr == nil; chip++ {
		f.Engine(0).Quiesce(func() { f.Rank(0).FailChip(chip) })
		if repErr = f.RepairChip(0, chip); repErr == nil {
			declined += len(bands) - f.Repairs()[chip].ReplicaBands
		}
	}
	close(stop)
	wg.Wait()
	if repErr != nil {
		t.Fatalf("RepairChip: %v", repErr)
	}
	for w := range errs {
		if errs[w] != nil {
			t.Fatalf("writer %d: %v", w, errs[w])
		}
	}
	t.Logf("writers held %d of %d replicated bands at their copy", declined, 7*len(bands))

	twin := repairFleet(t, testConfig())
	got := make([]byte, f.BlockBytes())
	for b := int64(0); b < f.Blocks(); b++ {
		want := []byte(nil)
		for w := range shadows {
			if d, ok := shadows[w][b]; ok {
				want = d
			}
		}
		if want == nil {
			checkBlock(t, f, b)
			continue
		}
		if err := f.ReadBlockInto(b, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d lost a write during the repairs: %v", b, err)
		}
		if err := twin.WriteBlock(b, want); err != nil {
			t.Fatalf("twin write %d: %v", b, err)
		}
	}
	for _, g := range []*Fleet{f, twin} {
		for rk := 0; rk < 2; rk++ {
			g.Engine(rk).Quiesce(func() { g.Rank(rk).CloseAllRows() })
		}
	}
	for rk := 0; rk < 2; rk++ {
		for ci := 0; ci < f.Rank(rk).NumChips(); ci++ {
			if !bytes.Equal(f.Rank(rk).Chip(ci).CellArray(), twin.Rank(rk).Chip(ci).CellArray()) {
				t.Fatalf("rank %d chip %d cells differ from the never-failed twin", rk, ci)
			}
		}
	}
}

// TestRepairChipUnderReplicaRankWrites repairs rank 0 from its replicas
// on rank 1 while writers stream through rank 1's own bands, in the same
// banks as the replica slots. The shard lock the replica VLEW read takes
// is what keeps those writers' row opens and EUR drains out of the copy;
// run it with -race.
func TestRepairChipUnderReplicaRankWrites(t *testing.T) {
	f := repairFleet(t, testConfig())
	const writers = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	shadows := make([]map[int64][]byte, writers)
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		shadows[w] = make(map[int64][]byte)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Rank 1's k-th band is fleet band 1 + 3k; writer w owns k = w mod writers.
				k := int64(w + writers*rng.Intn(int(f.primary)/writers))
				b := (1+3*k)*f.BandBlocks() + rng.Int63n(f.BandBlocks())
				data := make([]byte, f.BlockBytes())
				rng.Read(data)
				if err := f.WriteBlock(b, data); err != nil {
					errs[w] = err
					return
				}
				shadows[w][b] = data
			}
		}()
	}
	var repErr error
	for i := 0; i < 8 && repErr == nil; i++ {
		f.Engine(0).Quiesce(func() { f.Rank(0).FailChip(i) })
		if repErr = f.RepairChip(0, i); repErr == nil && f.Repairs()[i].ReplicaBands != 2 {
			t.Errorf("repair %d copied %d bands, want 2", i, f.Repairs()[i].ReplicaBands)
		}
	}
	close(stop)
	wg.Wait()
	if repErr != nil {
		t.Fatalf("RepairChip: %v", repErr)
	}
	for w := range errs {
		if errs[w] != nil {
			t.Fatalf("writer %d: %v", w, errs[w])
		}
	}
	got := make([]byte, f.BlockBytes())
	for b := int64(0); b < f.Blocks(); b++ {
		want, written := []byte(nil), false
		for w := range shadows {
			if d, ok := shadows[w][b]; ok {
				want, written = d, true
			}
		}
		if !written {
			checkBlock(t, f, b)
			continue
		}
		if err := f.ReadBlockInto(b, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d lost a write during the repairs: %v", b, err)
		}
	}
}

// TestRepairChipSameChipDoubleFault fails the same chip index on the
// primary and on the replica rank: every replica read must decline and
// the repair fall back to erasure, with no DUE anywhere.
func TestRepairChipSameChipDoubleFault(t *testing.T) {
	f := repairFleet(t, testConfig())
	const chip = 2
	for _, rk := range []int{0, 1} {
		f.Engine(rk).Quiesce(func() { f.Rank(rk).FailChip(chip) })
	}
	if err := f.RepairChip(0, chip); err != nil {
		t.Fatalf("RepairChip: %v", err)
	}
	if rep := f.Repairs()[0]; rep.ReplicaBands != 0 || rep.Unrecoverable || rep.ErasureBlocks != f.Rank(0).Blocks() {
		t.Fatalf("repair did not fall back to erasure: %+v", rep)
	}
	for b := int64(0); b < f.Blocks(); b++ {
		checkBlock(t, f, b)
	}
	for rk := 0; rk < 2; rk++ {
		if dues := f.Engine(rk).Telemetry().DUEs; dues != 0 {
			t.Fatalf("rank %d: %d DUEs", rk, dues)
		}
	}
}
