package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// migrateAll drives an online migration to completion, returning the WAL
// images handed to the journal callback (one per band).
func migrateAll(t *testing.T, c *Controller, chip int) [][]byte {
	t.Helper()
	m, err := c.BeginMigration(chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wals [][]byte
	for m.Cursor() < c.Rank().Blocks() {
		err := c.MigrateBand(m.Cursor(), func(slices []byte) error {
			wals = append(wals, append([]byte(nil), slices...))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return wals
}

// TestOnlineMigrationMatchesStopTheWorld migrates band by band — with the
// failed chip dead, so every band is reconstructed via RS erasure — and
// checks every block against the reference, interleaving demand traffic
// on both sides of the cursor while the migration is in flight.
func TestOnlineMigrationMatchesStopTheWorld(t *testing.T) {
	c := newTestController(t, 42, nil)
	ref := fillRandom(t, c, 43)
	const failed = 3
	c.Rank().FailChip(failed)

	m, err := c.BeginMigration(failed, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	blocks := c.Rank().Blocks()
	walBands := 0
	for m.Cursor() < blocks {
		if err := c.MigrateBand(m.Cursor(), func([]byte) error { walBands++; return nil }); err != nil {
			t.Fatal(err)
		}
		// Demand traffic against both layouts mid-migration.
		for i := 0; i < 4; i++ {
			b := rng.Int63n(blocks)
			if rng.Intn(2) == 0 {
				got, err := readBlock(c, b)
				if err != nil {
					t.Fatalf("mid-migration read %d (cursor %d): %v", b, m.Cursor(), err)
				}
				if !bytes.Equal(got, ref[b]) {
					t.Fatalf("mid-migration read %d: wrong data (cursor %d)", b, m.Cursor())
				}
			} else {
				data := make([]byte, 64)
				rng.Read(data)
				if err := c.WriteBlock(b, data); err != nil {
					t.Fatalf("mid-migration write %d (cursor %d): %v", b, m.Cursor(), err)
				}
				ref[b] = data
			}
		}
	}
	if deg, chip := c.Degraded(); !deg || chip != failed {
		t.Fatalf("after migration: degraded=%v chip=%d", deg, chip)
	}
	if want := blocks / c.BandBlocks(); int64(walBands) != want {
		t.Fatalf("WAL callback ran %d times, want %d", walBands, want)
	}
	for b := int64(0); b < blocks; b++ {
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("post-migration read %d: %v", b, err)
		}
		if !bytes.Equal(got, ref[b]) {
			t.Fatalf("post-migration read %d: wrong data", b)
		}
	}
	if got := c.Stats().BandsMigrated; got != blocks/c.BandBlocks() {
		t.Fatalf("BandsMigrated = %d, want %d", got, blocks/c.BandBlocks())
	}
}

// TestSiblingControllersShareLayout builds two controllers over one rank,
// as an engine's shards are: a migration begun or advanced through either
// is the other's at once, with no join step, and the last band leaves
// both degraded.
func TestSiblingControllersShareLayout(t *testing.T) {
	cs, err := NewControllers(smallRank(t, 44), DefaultConfig(), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := cs[0], cs[1]
	if a.RS() != b.RS() {
		t.Fatal("sibling controllers built separate RS codes")
	}
	ref := fillRandom(t, a, 45)
	const failed = 4
	m, err := a.BeginMigration(failed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Migrating() != m {
		t.Fatal("sibling does not see the migration")
	}
	if _, err := b.BeginMigration(failed, 0); !errors.Is(err, ErrMigrationInProgress) {
		t.Fatalf("sibling BeginMigration mid-migration: %v not ErrMigrationInProgress", err)
	}
	if err := a.MigrateBand(m.Cursor(), nil); err != nil {
		t.Fatal(err)
	}
	// The sibling reads the band a migrated through the striped layout,
	// then migrates the next band itself.
	for blk := int64(0); blk < m.Cursor(); blk++ {
		got, err := readBlock(b, blk)
		if err != nil || !bytes.Equal(got, ref[blk]) {
			t.Fatalf("sibling read %d below the cursor: %v", blk, err)
		}
	}
	if err := b.MigrateBand(m.Cursor(), nil); err != nil {
		t.Fatal(err)
	}
	for m.Cursor() < a.Rank().Blocks() {
		if err := a.MigrateBand(m.Cursor(), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range cs {
		if deg, chip := c.Degraded(); !deg || chip != failed || c.Migrating() != nil {
			t.Fatalf("controller %d after the last band: degraded=%v chip=%d migrating=%v", i, deg, chip, c.Migrating() != nil)
		}
	}
	for blk, want := range ref {
		got, err := readBlock(b, blk)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("sibling read %d after migration: %v", blk, err)
		}
	}
}

// TestRedoBandFromTornState crashes a band rewrite at its most torn
// point — parity slices half-written, no striped code yet — and checks
// that RedoBand from the WAL image converges to the striped layout.
func TestRedoBandFromTornState(t *testing.T) {
	c := newTestController(t, 50, nil)
	ref := fillRandom(t, c, 51)
	const failed = 5
	c.Rank().FailChip(failed)

	m, err := c.BeginMigration(failed, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Migrate two bands normally, capturing the third band's WAL image.
	for i := 0; i < 2; i++ {
		if err := c.MigrateBand(m.Cursor(), nil); err != nil {
			t.Fatal(err)
		}
	}
	first := m.Cursor()
	var wal []byte
	captureErr := errors.New("stop before rewrite")
	err = c.MigrateBand(first, func(slices []byte) error {
		wal = append([]byte(nil), slices...)
		return captureErr // abort after journaling, before any rewrite
	})
	if !errors.Is(err, captureErr) {
		t.Fatalf("MigrateBand: %v", err)
	}
	// Tear: write the remapped slice for only half the band's blocks.
	n := c.Rank().Config().ChipAccessBytes
	parity := c.Rank().Chip(c.Rank().ParityChipIndex())
	for i := int64(0); i < c.BandBlocks()/2; i++ {
		loc := c.Rank().Locate(first + i)
		parity.WriteDataRaw(loc.Bank, loc.Row, loc.Col, wal[int(i)*n:(int(i)+1)*n])
	}
	// Redo from the journal image, then finish the migration.
	if err := c.RedoBand(first, wal); err != nil {
		t.Fatal(err)
	}
	for m.Cursor() < c.Rank().Blocks() {
		if err := c.MigrateBand(m.Cursor(), nil); err != nil {
			t.Fatal(err)
		}
	}
	for b := int64(0); b < c.Rank().Blocks(); b++ {
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("read %d: %v", b, err)
		}
		if !bytes.Equal(got, ref[b]) {
			t.Fatalf("read %d: wrong data", b)
		}
	}
}

// TestMigrationWithHealthyChip covers proactive retirement: the suspect
// chip still answers, so bands are read via the fast path, not erasure.
func TestMigrationWithHealthyChip(t *testing.T) {
	c := newTestController(t, 60, nil)
	ref := fillRandom(t, c, 61)
	migrateAll(t, c, 0)
	for b := int64(0); b < c.Rank().Blocks(); b++ {
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("read %d: %v", b, err)
		}
		if !bytes.Equal(got, ref[b]) {
			t.Fatalf("read %d: wrong data", b)
		}
	}
}

// TestPatrolScrubPausedDuringMigration pins the patrol no-op contract
// mid-migration and the striped patrol walk after it.
func TestPatrolScrubPausedDuringMigration(t *testing.T) {
	c := newTestController(t, 70, nil)
	fillRandom(t, c, 71)
	m, err := c.BeginMigration(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next, fixed := c.PatrolScrub(5, 10); next != 5 || fixed != 0 {
		t.Fatalf("patrol mid-migration: next=%d fixed=%d, want 5, 0", next, fixed)
	}
	for m.Cursor() < c.Rank().Blocks() {
		if err := c.MigrateBand(m.Cursor(), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Degraded patrol: walk every striped group; a healthy rank scrubs
	// them all without an uncorrectable.
	total := c.TotalPatrolUnits()
	if want := c.Rank().Blocks() / 4; total != want {
		t.Fatalf("degraded TotalPatrolUnits = %d, want %d", total, want)
	}
	before := c.Stats()
	pos := int64(0)
	var fixed int64
	for scanned := int64(0); scanned < total; scanned += 16 {
		var f int64
		pos, f = c.PatrolScrub(pos, 16)
		fixed += f
	}
	after := c.Stats()
	if after.ScrubUncorrectable != before.ScrubUncorrectable {
		t.Fatalf("degraded patrol hit %d uncorrectable groups", after.ScrubUncorrectable-before.ScrubUncorrectable)
	}
	if after.ScrubbedVLEWs-before.ScrubbedVLEWs < total {
		t.Fatalf("degraded patrol scrubbed %d units, want >= %d", after.ScrubbedVLEWs-before.ScrubbedVLEWs, total)
	}
}

// TestErrorSentinels asserts every exported failure path is
// errors.Is-matchable against the package sentinels.
func TestErrorSentinels(t *testing.T) {
	c := newTestController(t, 80, nil)
	fillRandom(t, c, 81)

	c.DisableBlock(9)
	if _, err := readBlock(c, 9); !errors.Is(err, ErrBlockDisabled) {
		t.Errorf("disabled read: %v not ErrBlockDisabled", err)
	}
	if err := c.WriteBlock(9, make([]byte, 64)); !errors.Is(err, ErrBlockDisabled) {
		t.Errorf("disabled write: %v not ErrBlockDisabled", err)
	}

	// Two dead chips exceed the scheme: reads are DUEs.
	c2 := newTestController(t, 82, nil)
	fillRandom(t, c2, 83)
	c2.Rank().FailChip(1)
	c2.Rank().FailChip(4)
	if _, err := readBlock(c2, 0); !errors.Is(err, ErrUncorrectable) {
		t.Errorf("double-kill read: %v not ErrUncorrectable", err)
	}
	if tel := c2.Telemetry(); tel.DUEs == 0 {
		t.Error("double-kill read did not count a DUE in telemetry")
	}

	// Migration conflicts.
	c3 := newTestController(t, 84, nil)
	fillRandom(t, c3, 85)
	if _, err := c3.BeginMigration(2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.BeginMigration(2, 0); !errors.Is(err, ErrMigrationInProgress) {
		t.Errorf("double BeginMigration: %v not ErrMigrationInProgress", err)
	}
	if err := c3.EnterDegradedMode(2); !errors.Is(err, ErrMigrationInProgress) {
		t.Errorf("EnterDegradedMode mid-migration: %v not ErrMigrationInProgress", err)
	}

	// Chip-level dead ends.
	c4 := newTestController(t, 86, nil)
	fillRandom(t, c4, 87)
	c4.Rank().FailChip(c4.Rank().ParityChipIndex())
	if _, err := c4.BeginMigration(2, 0); !errors.Is(err, ErrChipFailed) {
		t.Errorf("BeginMigration with dead parity: %v not ErrChipFailed", err)
	}
	if err := c4.EnterDegradedMode(2); !errors.Is(err, ErrChipFailed) {
		t.Errorf("EnterDegradedMode with dead parity: %v not ErrChipFailed", err)
	}

	c5 := newTestController(t, 88, nil)
	fillRandom(t, c5, 89)
	if err := c5.EnterDegradedMode(3); err != nil {
		t.Fatal(err)
	}
	if _, err := c5.BeginMigration(3, 0); !errors.Is(err, ErrChipFailed) {
		t.Errorf("BeginMigration when degraded: %v not ErrChipFailed", err)
	}
}

// TestTelemetryAttribution checks the per-chip attribution paths: RS
// corrections, VLEW failures, and erasure repairs all land on the right
// chip, and snapshots may be diffed.
func TestTelemetryAttribution(t *testing.T) {
	c := newTestController(t, 90, nil)
	fillRandom(t, c, 91)
	base := c.Telemetry()

	// A couple of bit flips on chip 2 within one block: RS-corrected.
	loc := c.Rank().Locate(100)
	c.Rank().Chip(2).FlipDataBit(loc.Bank, loc.Row, loc.Col, 3)
	if _, err := readBlock(c, 100); err != nil {
		t.Fatal(err)
	}
	d := c.Telemetry().Delta(base)
	if d.Chips[2].RSCorrections == 0 {
		t.Error("RS correction not attributed to chip 2")
	}

	// Kill chip 6: fallback reads record a VLEW failure and an erasure
	// repair for it.
	base = c.Telemetry()
	c.Rank().FailChip(6)
	if _, err := readBlock(c, 200); err != nil {
		t.Fatal(err)
	}
	d = c.Telemetry().Delta(base)
	if d.Chips[6].VLEWFailures == 0 {
		t.Error("VLEW failure not attributed to chip 6")
	}
	if d.Chips[6].ErasureRepairs == 0 {
		t.Error("erasure repair not attributed to chip 6")
	}
	if d.Chips[6].FailedAccesses == 0 {
		t.Error("failed accesses not surfaced for chip 6")
	}
	for ci := range d.Chips {
		if ci != 6 && d.Chips[ci].VLEWFailures != 0 {
			t.Errorf("spurious VLEW failure attributed to chip %d", ci)
		}
	}
}

// TestProbeVLEW pins the probe discriminator: probes pass on a healthy
// chip, fail on a dead one, and a single broken word fails only its own
// probe.
func TestProbeVLEW(t *testing.T) {
	c := newTestController(t, 95, nil)
	fillRandom(t, c, 96)
	if !c.ProbeVLEW(1, 0, 0, 0) {
		t.Error("probe of healthy chip failed")
	}
	c.Rank().FailChip(1)
	fails := 0
	for v := 0; v < 4; v++ {
		if !c.ProbeVLEW(1, 0, 0, v) {
			fails++
		}
	}
	if fails < 3 {
		t.Errorf("dead chip passed %d/4 probes", 4-fails)
	}
}
