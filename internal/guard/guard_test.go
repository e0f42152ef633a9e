package guard

import (
	"bytes"
	"math/rand"
	"testing"

	"chipkillpm/internal/core"
	"chipkillpm/internal/engine"
	"chipkillpm/internal/rank"
)

func newTestEngine(t *testing.T, seed int64) *engine.Engine {
	t.Helper()
	r, err := rank.New(rank.PaperConfig(4, 8, 1024, seed))
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(r, engine.Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func fillBlock(buf []byte, block int64, version int) {
	for i := range buf {
		buf[i] = byte(block>>uint(8*(i&7))) ^ byte(version*131) ^ byte(i)
	}
}

func populate(t *testing.T, e *engine.Engine) {
	t.Helper()
	buf := make([]byte, e.BlockBytes())
	for b := int64(0); b < e.Blocks(); b++ {
		fillBlock(buf, b, 0)
		if err := e.WriteBlockInitial(b, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// demandLoad drives n mixed reads/writes against the engine, verifying
// reads against the shadow version map.
func demandLoad(t *testing.T, e *engine.Engine, rng *rand.Rand, shadow map[int64]int, n int) {
	t.Helper()
	buf := make([]byte, e.BlockBytes())
	want := make([]byte, e.BlockBytes())
	for i := 0; i < n; i++ {
		b := rng.Int63n(e.Blocks())
		if rng.Intn(3) == 0 {
			shadow[b]++
			fillBlock(buf, b, shadow[b])
			if err := e.WriteBlock(b, buf); err != nil {
				t.Fatalf("write %d: %v", b, err)
			}
		} else {
			if err := e.ReadBlockInto(b, buf); err != nil {
				t.Fatalf("read %d: %v", b, err)
			}
			fillBlock(want, b, shadow[b])
			if !bytes.Equal(buf, want) {
				t.Fatalf("block %d: wrong data", b)
			}
		}
	}
}

func verifyAll(t *testing.T, e *engine.Engine, shadow map[int64]int) {
	t.Helper()
	buf := make([]byte, e.BlockBytes())
	want := make([]byte, e.BlockBytes())
	for b := int64(0); b < e.Blocks(); b++ {
		if err := e.ReadBlockInto(b, buf); err != nil {
			t.Fatalf("final read %d: %v", b, err)
		}
		fillBlock(want, b, shadow[b])
		if !bytes.Equal(buf, want) {
			t.Fatalf("final block %d: wrong data", b)
		}
	}
}

// TestSupervisorChipKillToDegraded is the tentpole end-to-end: a data
// chip dies under live traffic; the supervisor notices via telemetry,
// discriminates with probes, convicts, migrates online (demand traffic
// continues throughout — no stop-the-world), and lands in degraded mode
// with every block intact.
func TestSupervisorChipKillToDegraded(t *testing.T) {
	e := newTestEngine(t, 11)
	populate(t, e)
	region := NewRegion(RegionSizeFor(e))
	sup, err := New(e, region, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	shadow := map[int64]int{}

	// A few healthy ticks: nothing to find.
	demandLoad(t, e, rng, shadow, 32)
	if err := sup.Run(3); err != nil {
		t.Fatal(err)
	}
	if sup.State() != StateHealthy || sup.Report().SuspicionsRaised != 0 {
		t.Fatalf("healthy engine raised suspicion: %+v", sup.Report())
	}

	const failed = 2
	e.Quiesce(func() { e.Rank().FailChip(failed) })

	sawSuspected, sawMigrating := false, false
	opsDuringMigration := 0
	for i := 0; i < 400 && sup.State() != StateDegraded; i++ {
		demandLoad(t, e, rng, shadow, 8)
		if sup.State() == StateMigrating {
			opsDuringMigration += 8
		}
		switch sup.State() {
		case StateSuspected:
			sawSuspected = true
		case StateMigrating:
			sawMigrating = true
		}
		if err := sup.Tick(); err != nil {
			t.Fatalf("tick %d (state %v): %v", i, sup.State(), err)
		}
	}
	if sup.State() != StateDegraded {
		t.Fatalf("supervisor stuck in %v: %+v", sup.State(), sup.Report())
	}
	if !sawSuspected || !sawMigrating {
		t.Fatalf("skipped states: suspected=%v migrating=%v", sawSuspected, sawMigrating)
	}
	if opsDuringMigration == 0 {
		t.Fatal("no demand traffic overlapped the migration")
	}
	rep := sup.Report()
	if rep.Verdicts != 1 || rep.SuspicionsRaised != 1 {
		t.Fatalf("report %+v, want 1 suspicion and 1 verdict", rep)
	}
	if d, chip := e.Degraded(); !d || chip != failed {
		t.Fatalf("engine Degraded() = %v, %d", d, chip)
	}
	verifyAll(t, e, shadow)
	if st := e.Stats(); st.Uncorrectable != 0 {
		t.Fatalf("uncorrectable errors during self-heal: %+v", st)
	}
	// Degraded patrol keeps running after migration.
	before := e.Stats().ScrubbedVLEWs
	if err := sup.Run(4); err != nil {
		t.Fatal(err)
	}
	if e.Stats().ScrubbedVLEWs == before {
		t.Fatal("degraded patrol not scrubbing")
	}
}

// TestSupervisorTransientStormCleared plants a dead VLEW (24 bit flips —
// beyond both the RS threshold and the 22-bit BCH budget, so every read
// takes the erasure-repair path and reports a VLEW failure) on an
// otherwise healthy chip. The probe rounds must see a healthy chip and
// acquit: zero verdicts, zero migrations, zero DUEs.
func TestSupervisorTransientStormCleared(t *testing.T) {
	e := newTestEngine(t, 12)
	populate(t, e)
	region := NewRegion(RegionSizeFor(e))
	sup, err := New(e, region, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	const bombChip, bombBlock = 3, 77
	loc := e.Rank().Locate(bombBlock)
	e.Quiesce(func() {
		chip := e.Rank().Chip(bombChip)
		for k := 0; k < 8; k++ {
			for _, bit := range []uint{0, 3, 6} {
				chip.FlipDataBit(loc.Bank, loc.Row, loc.Col+k, bit)
			}
		}
	})

	// The storm: a burst of reads of the broken word.
	buf := make([]byte, e.BlockBytes())
	want := make([]byte, e.BlockBytes())
	for i := 0; i < 3; i++ {
		if err := e.ReadBlockInto(bombBlock, buf); err != nil {
			t.Fatalf("read of bombed block: %v", err)
		}
	}
	fillBlock(want, bombBlock, 0)
	if !bytes.Equal(buf, want) {
		t.Fatal("bombed block read wrong data")
	}

	cleared := false
	for i := 0; i < 50; i++ {
		if err := sup.Tick(); err != nil {
			t.Fatal(err)
		}
		if sup.Report().SuspicionsCleared > 0 {
			cleared = true
			break
		}
	}
	rep := sup.Report()
	if !cleared || rep.State != StateHealthy {
		t.Fatalf("storm not cleared: %+v", rep)
	}
	if rep.SuspicionsRaised == 0 {
		t.Fatal("storm never raised suspicion — test lost its signal")
	}
	if rep.Verdicts != 0 {
		t.Fatalf("spurious chip-kill verdict on a transient storm: %+v", rep)
	}
	if e.Migrating() != nil {
		t.Fatal("spurious migration started")
	}
	if d, _ := e.Degraded(); d {
		t.Fatal("spurious degraded mode")
	}
	if tel := e.Telemetry(); tel.DUEs != 0 {
		t.Fatalf("DUEs during transient storm: %d", tel.DUEs)
	}
}

// TestSupervisorParityKillWounded convicts the parity chip, which the
// Sec V-E remap cannot migrate around: the supervisor parks in
// StateWounded and data stays readable.
func TestSupervisorParityKillWounded(t *testing.T) {
	e := newTestEngine(t, 13)
	populate(t, e)
	region := NewRegion(RegionSizeFor(e))
	sup, err := New(e, region, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	parity := e.Rank().ParityChipIndex()
	e.Quiesce(func() { e.Rank().FailChip(parity) })
	rng := rand.New(rand.NewSource(7))
	shadow := map[int64]int{}
	for i := 0; i < 100 && sup.State() != StateWounded; i++ {
		demandLoad(t, e, rng, shadow, 8)
		if err := sup.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	rep := sup.Report()
	if rep.State != StateWounded || rep.Verdicts != 1 {
		t.Fatalf("parity kill: %+v, want wounded with 1 verdict", rep)
	}
	if d, _ := e.Degraded(); d || e.Migrating() != nil {
		t.Fatal("parity kill must not trigger a migration")
	}
	verifyAll(t, e, shadow)
}

// TestSupervisorCrashMidMigrationRecovers kills a chip, lets the
// supervisor migrate partway, then tears a journal write mid-store (power
// loss). After "reboot" — a fresh engine over the same rank and a fresh
// supervisor over the surviving journal bytes — recovery must resume the
// migration where the journal left it, redo the possibly-torn last band
// from its write-ahead image, and finish with every block intact.
func TestSupervisorCrashMidMigrationRecovers(t *testing.T) {
	r, err := rank.New(rank.PaperConfig(4, 8, 1024, 21))
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(r, engine.Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, e)
	region := NewRegion(RegionSizeFor(e))
	sup, err := New(e, region, Config{Seed: 4, BandsPerTick: 1})
	if err != nil {
		t.Fatal(err)
	}
	const failed = 1
	e.Quiesce(func() { r.FailChip(failed) })
	rng := rand.New(rand.NewSource(17))
	shadow := map[int64]int{}

	// Let detection and some of the migration run.
	for i := 0; i < 100 && e.Stats().BandsMigrated < 10; i++ {
		demandLoad(t, e, rng, shadow, 6)
		if err := sup.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if sup.State() != StateMigrating {
		t.Fatalf("setup failed: state %v after warmup", sup.State())
	}
	preCrash := e.Stats().BandsMigrated

	// Power loss tears the next band's write-ahead record mid-store. The
	// torn append must abort that band's rewrite: the rank never runs
	// ahead of the journal.
	region.TearNextWrite(20)
	if err := sup.Tick(); err == nil {
		t.Fatal("tick across a torn journal write reported success")
	}
	if !region.Crashed() {
		t.Fatal("tear did not fire")
	}
	if got := e.Stats().BandsMigrated; got != preCrash {
		t.Fatalf("rank ran ahead of the journal: %d bands vs %d before the crash", got, preCrash)
	}

	// The last journaled band's rewrite may itself have torn: scribble on
	// the parity chip's remapped slices for that band; recovery's redo
	// must rewrite them from the journaled image.
	lastBand := preCrash - 1
	bb := e.BandBlocks()
	pchip := r.Chip(r.ParityChipIndex())
	garbage := bytes.Repeat([]byte{0xEE}, r.Config().ChipAccessBytes)
	for blk := lastBand * bb; blk < lastBand*bb+4; blk++ {
		l := r.Locate(blk)
		pchip.WriteDataRaw(l.Bank, l.Row, l.Col, garbage)
	}

	// Reboot: volatile chip state is gone, the region keeps only what
	// persisted, and a fresh engine + supervisor come up. Recovery runs
	// before any demand traffic or boot scrub.
	r.CloseAllRows()
	region.Reboot()
	e2, err := engine.New(r, engine.Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	sup2, err := New(e2, region, Config{Seed: 5, BandsPerTick: 1})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rep := sup2.Report()
	if !rep.MigrationResumed || rep.State != StateMigrating {
		t.Fatalf("recovery did not resume the migration: %+v", rep)
	}

	for i := 0; i < 400 && sup2.State() != StateDegraded; i++ {
		demandLoad(t, e2, rng, shadow, 4)
		if err := sup2.Tick(); err != nil {
			t.Fatalf("post-recovery tick: %v", err)
		}
	}
	if sup2.State() != StateDegraded {
		t.Fatalf("resumed migration never finished: %+v", sup2.Report())
	}
	if d, chip := e2.Degraded(); !d || chip != failed {
		t.Fatalf("post-recovery Degraded() = %v, %d", d, chip)
	}
	verifyAll(t, e2, shadow)
	if st := e2.Stats(); st.Uncorrectable != 0 {
		t.Fatalf("uncorrectable errors after crash recovery: %+v", st)
	}
}

// TestSupervisorRecoversCompletedMigration crashes after the journal's
// done record: boot must adopt the striped layout without re-migrating.
func TestSupervisorRecoversCompletedMigration(t *testing.T) {
	r, err := rank.New(rank.PaperConfig(4, 8, 1024, 22))
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(r, engine.Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, e)
	region := NewRegion(RegionSizeFor(e))
	sup, err := New(e, region, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	const failed = 5
	e.Quiesce(func() { r.FailChip(failed) })
	rng := rand.New(rand.NewSource(23))
	shadow := map[int64]int{}
	for i := 0; i < 400 && sup.State() != StateDegraded; i++ {
		demandLoad(t, e, rng, shadow, 4)
		if err := sup.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if sup.State() != StateDegraded {
		t.Fatalf("migration never finished: %+v", sup.Report())
	}

	r.CloseAllRows()
	e2, err := engine.New(r, engine.Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	sup2, err := New(e2, region, Config{Seed: 7})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	rep := sup2.Report()
	if rep.State != StateDegraded || !rep.MigrationResumed {
		t.Fatalf("completed migration not adopted at boot: %+v", rep)
	}
	if d, chip := e2.Degraded(); !d || chip != failed {
		t.Fatalf("post-boot Degraded() = %v, %d", d, chip)
	}
	verifyAll(t, e2, shadow)
}

// TestSupervisorCrashBeforeDoneRecovers crashes after the last band's
// journal record and rewrite, before the done record persists. The
// resumed migration's redo of that band leaves the cursor at the end, so
// the rebooted engine is degraded with no finish step; the next tick
// journals done, and patrol walks striped groups.
func TestSupervisorCrashBeforeDoneRecovers(t *testing.T) {
	r, err := rank.New(rank.PaperConfig(4, 8, 1024, 24))
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(r, engine.Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, e)
	region := NewRegion(RegionSizeFor(e))
	sup, err := New(e, region, Config{Seed: 8, BandsPerTick: 1})
	if err != nil {
		t.Fatal(err)
	}
	const failed = 3
	e.Quiesce(func() { r.FailChip(failed) })
	rng := rand.New(rand.NewSource(25))
	shadow := map[int64]int{}
	for i := 0; i < 1000 && sup.State() != StateDegraded; i++ {
		demandLoad(t, e, rng, shadow, 2)
		if err := sup.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if sup.State() != StateDegraded {
		t.Fatalf("migration never finished: %+v", sup.Report())
	}
	// Power loss before the done record persisted: it is the journal's
	// last record, so erase it.
	done := recHeaderSize + recTrailerSize
	clear(region.Bytes()[sup.jrn.off-done : sup.jrn.off])

	r.CloseAllRows()
	e2, err := engine.New(r, engine.Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	sup2, err := New(e2, region, Config{Seed: 9, PatrolUnits: 16})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rep := sup2.Report(); !rep.MigrationResumed || rep.State != StateMigrating {
		t.Fatalf("recovery did not resume the migration: %+v", rep)
	}
	if d, chip := e2.Degraded(); !d || chip != failed || e2.Migrating() != nil {
		t.Fatalf("after recovery: Degraded() = %v, %d, migrating=%v", d, chip, e2.Migrating() != nil)
	}
	e2.ResetStats()
	if err := sup2.Run(5); err != nil {
		t.Fatal(err)
	}
	if sup2.State() != StateDegraded {
		t.Fatalf("supervisor in %v after recovery ticks, want degraded", sup2.State())
	}
	// One tick journals done; the other four patrol 16 striped groups each.
	if st := e2.Stats(); st.ScrubbedVLEWs != 4*16 || st.ScrubUncorrectable != 0 {
		t.Fatalf("post-recovery patrol: scrubbed %d, uncorrectable %d; want 64, 0", st.ScrubbedVLEWs, st.ScrubUncorrectable)
	}
	if total := e2.TotalPatrolUnits(); total != e2.Blocks()/core.StripedBlocksPerVLEW {
		t.Fatalf("patrol space %d, want %d striped groups", total, e2.Blocks()/core.StripedBlocksPerVLEW)
	}
	verifyAll(t, e2, shadow)

	// The done record is durable now: a second boot adopts the layout.
	e3, err := engine.New(r, engine.Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	sup3, err := New(e3, region, Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep := sup3.Report(); rep.State != StateDegraded {
		t.Fatalf("second boot: %+v, want degraded", rep)
	}
	verifyAll(t, e3, shadow)
}
