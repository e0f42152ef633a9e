package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"chipkillpm/internal/core"
)

// TestOnlineMigrationUnderLoad is the engine-level acceptance test for
// online degraded-mode migration: a chip dies, concurrent workers keep
// reading and writing their disjoint block stripes (verifying against
// per-worker shadows) while one migrator goroutine walks the rank band by
// band — no global quiesce between chip kill and completion.
func TestOnlineMigrationUnderLoad(t *testing.T) {
	e := testEngine(t, 0, 0)
	populate(t, e)
	const failed = 2
	e.Quiesce(func() { e.rank.FailChip(failed) })

	m, err := e.BeginMigration(failed, 0)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	stop := make(chan struct{})
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*1013 + 5))
			owned := make([]int64, 0, e.Blocks()/workers+1)
			for b := int64(w); b < e.Blocks(); b += workers {
				owned = append(owned, b)
			}
			shadow := make(map[int64]int, len(owned))
			buf := make([]byte, e.BlockBytes())
			want := make([]byte, e.BlockBytes())
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := owned[rng.Intn(len(owned))]
				if rng.Intn(2) == 0 {
					if err := e.ReadBlockInto(b, buf); err != nil {
						errCh <- fmt.Errorf("worker %d read %d: %w", w, b, err)
						return
					}
					fillBlock(want, b, shadow[b])
					if !bytes.Equal(buf, want) {
						errCh <- fmt.Errorf("worker %d block %d: stale data mid-migration", w, b)
						return
					}
				} else {
					shadow[b]++
					fillBlock(buf, b, shadow[b])
					if err := e.WriteBlock(b, buf); err != nil {
						errCh <- fmt.Errorf("worker %d write %d: %w", w, b, err)
						return
					}
				}
			}
		}(w)
	}

	for m.Cursor() < e.Blocks() {
		if err := e.MigrateBand(m, nil); err != nil {
			close(stop)
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if d, chip := e.Degraded(); !d || chip != failed {
		t.Fatalf("Degraded() = %v, %d after migration", d, chip)
	}
	if st := e.Stats(); st.BandsMigrated != e.Blocks()/e.BandBlocks() {
		t.Fatalf("BandsMigrated = %d, want %d", st.BandsMigrated, e.Blocks()/e.BandBlocks())
	}
	if st := e.Stats(); st.Uncorrectable != 0 {
		t.Fatalf("uncorrectable reads during online migration: %+v", st)
	}
}

// TestDegradedEntryMatchesReference enters degraded mode around a dead
// chip and checks the layout on the chips against reference data rather
// than against the controllers' own reads: the parity chip's data region
// holds the failed chip's reference slices, and every striped group's
// holder slot holds the VLEW code of the group's reference bytes. The
// holder map is Sec V-E's: group s of a row sits on survivor s%8,
// counting past the failed chip, at code slot s/8.
func TestDegradedEntryMatchesReference(t *testing.T) {
	const failed = 4
	e := testEngine(t, 0, 0)
	populate(t, e)
	e.Quiesce(func() { e.rank.FailChip(failed) })
	if err := e.EnterDegradedMode(failed); err != nil {
		t.Fatal(err)
	}

	r := e.rank
	rcfg := r.Config()
	n, bb, code := rcfg.ChipAccessBytes, rcfg.BlockBytes(), rcfg.VLEWCode
	parity := r.Chip(r.ParityChipIndex())
	survivors := r.NumChips() - 1
	group := make([]byte, core.StripedBlocksPerVLEW*bb)
	slice := make([]byte, n)
	slot := make([]byte, rcfg.Geometry.VLEWCodeBytes)
	for first := int64(0); first < e.Blocks(); first += core.StripedBlocksPerVLEW {
		for i := 0; i < core.StripedBlocksPerVLEW; i++ {
			b, ref := first+int64(i), group[i*bb:(i+1)*bb]
			fillBlock(ref, b, 0)
			loc := r.Locate(b)
			parity.ReadDataInto(slice, loc.Bank, loc.Row, loc.Col)
			if !bytes.Equal(slice, ref[failed*n:(failed+1)*n]) {
				t.Fatalf("block %d: parity chip does not hold the failed chip's reference slice", b)
			}
		}
		s := int(first%e.bpr) / core.StripedBlocksPerVLEW
		holder := s % survivors
		if holder >= failed {
			holder++
		}
		loc := r.Locate(first)
		r.Chip(holder).ReadCodeInto(slot, loc.Bank, loc.Row, s/survivors)
		if !bytes.Equal(slot[:code.ParityBytes()], code.Encode(group)) {
			t.Fatalf("group at block %d: holder slot is not the code of its reference bytes", first)
		}
	}
}

// TestPatrolScrubConcurrentWithDemand exercises patrol scrub interleaved
// with live demand traffic under -race: drifted bits must get scrubbed
// while workers keep verifying their shadows, and the patrol's batched
// counters must stay visible to a concurrent Stats poller.
func TestPatrolScrubConcurrentWithDemand(t *testing.T) {
	e := testEngine(t, 0, 0)
	populate(t, e)
	e.Quiesce(func() { e.rank.InjectRetentionErrors(5e-6) })

	const workers = 4
	stop := make(chan struct{})
	errCh := make(chan error, workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*733 + 1))
			owned := make([]int64, 0, e.Blocks()/workers+1)
			for b := int64(w); b < e.Blocks(); b += workers {
				owned = append(owned, b)
			}
			shadow := make(map[int64]int, len(owned))
			buf := make([]byte, e.BlockBytes())
			want := make([]byte, e.BlockBytes())
			for op := 0; op < 600; op++ {
				b := owned[rng.Intn(len(owned))]
				if rng.Intn(3) != 0 {
					if err := e.ReadBlockInto(b, buf); err != nil {
						errCh <- fmt.Errorf("worker %d read %d: %w", w, b, err)
						return
					}
					fillBlock(want, b, shadow[b])
					if !bytes.Equal(buf, want) {
						errCh <- fmt.Errorf("worker %d block %d: wrong data", w, b)
						return
					}
				} else {
					shadow[b]++
					fillBlock(buf, b, shadow[b])
					if err := e.WriteBlock(b, buf); err != nil {
						errCh <- fmt.Errorf("worker %d write %d: %w", w, b, err)
						return
					}
				}
			}
		}(w)
	}

	// Patrol goroutine: sweep the whole position space at least once,
	// interleaved with the workers, then keep going until they finish.
	var patrolWG sync.WaitGroup
	patrolWG.Add(1)
	var scrubbed int64
	go func() {
		defer patrolWG.Done()
		pos := int64(0)
		total := e.TotalPatrolUnits()
		for swept := int64(0); ; swept += 64 {
			select {
			case <-stop:
				return
			default:
			}
			var f int64
			pos, f = e.PatrolScrub(pos, 64)
			scrubbed += f
			if swept >= total && scrubbed > 0 {
				// Full sweep done; idle-poll telemetry until workers stop.
				if tel := e.Telemetry(); len(tel.Chips) != e.rank.NumChips() {
					errCh <- fmt.Errorf("telemetry has %d chips", len(tel.Chips))
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	patrolWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := e.Stats()
	if st.ScrubbedVLEWs == 0 {
		t.Fatal("patrol scrubbed nothing")
	}
	if st.Uncorrectable != 0 {
		t.Fatalf("uncorrectable reads at patrol-scale RBER: %+v", st)
	}
}

// TestEnginePatrolDegraded checks the degraded patrol walk routes striped
// groups through the engine and covers the whole (smaller) position
// space.
func TestEnginePatrolDegraded(t *testing.T) {
	e := testEngine(t, 0, 0)
	populate(t, e)
	const failed = 1
	e.Quiesce(func() { e.rank.FailChip(failed) })
	m, err := e.BeginMigration(failed, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Patrol is paused mid-migration.
	if next, fixed := e.PatrolScrub(3, 8); next != 3 || fixed != 0 {
		t.Fatalf("patrol mid-migration: next=%d fixed=%d", next, fixed)
	}
	for m.Cursor() < e.Blocks() {
		if err := e.MigrateBand(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	total := e.TotalPatrolUnits()
	if want := e.Blocks() / 4; total != want {
		t.Fatalf("degraded TotalPatrolUnits = %d, want %d", total, want)
	}
	e.ResetStats()
	pos := int64(0)
	for swept := int64(0); swept < total; swept += 32 {
		pos, _ = e.PatrolScrub(pos, 32)
	}
	if st := e.Stats(); st.ScrubbedVLEWs < total {
		t.Fatalf("degraded patrol scrubbed %d units, want >= %d", st.ScrubbedVLEWs, total)
	}
}

// TestEngineTelemetryAttribution checks that chip-kill fallbacks feed the
// aggregated telemetry the supervisor watches.
func TestEngineTelemetryAttribution(t *testing.T) {
	e := testEngine(t, 0, 0)
	populate(t, e)
	base := e.Telemetry()
	const failed = 5
	e.Quiesce(func() { e.rank.FailChip(failed) })
	buf := make([]byte, e.BlockBytes())
	for b := int64(0); b < 64; b++ {
		if err := e.ReadBlockInto(b*e.bpr%e.Blocks(), buf); err != nil {
			t.Fatal(err)
		}
	}
	d := e.Telemetry().Delta(base)
	if d.Chips[failed].VLEWFailures == 0 || d.Chips[failed].ErasureRepairs == 0 {
		t.Fatalf("chip %d telemetry not attributed: %+v", failed, d.Chips[failed])
	}
	if d.Chips[failed].FailedAccesses == 0 {
		t.Fatal("failed accesses not surfaced in engine telemetry")
	}
	for ci := range d.Chips {
		if ci != failed && d.Chips[ci].VLEWFailures != 0 {
			t.Fatalf("spurious VLEW failures on chip %d", ci)
		}
	}
	// Probes through the engine: dead chip fails, healthy chip passes.
	if e.ProbeVLEW(failed, 0, 0, 0) {
		t.Error("probe of dead chip passed")
	}
	if !e.ProbeVLEW(0, 0, 0, 0) {
		t.Error("probe of healthy chip failed")
	}
}

// TestReadVLEWInto pins the replica-copy read: a correctable word comes
// back corrected with nothing written back, and the read declines a word
// beyond the code, a failed chip, and any chip once a migration starts.
func TestReadVLEWInto(t *testing.T) {
	e := testEngine(t, 0, 0)
	populate(t, e)
	g := e.rank.Config().Geometry
	const bank, row, v = 1, 2, 1
	data, code := make([]byte, g.VLEWDataBytes), make([]byte, g.VLEWCodeBytes)
	clean, cleanCode := make([]byte, g.VLEWDataBytes), make([]byte, g.VLEWCodeBytes)
	e.Quiesce(func() {
		e.rank.CloseAllRows()
		e.rank.Chip(3).ReadVLEWInto(clean, cleanCode, bank, row, v)
		for i := 0; i < 3; i++ {
			e.rank.Chip(3).FlipDataBit(bank, row, v*g.VLEWDataBytes+9*i, uint(i))
		}
		for i := 0; i < 40; i++ {
			e.rank.Chip(4).FlipDataBit(bank, row, v*g.VLEWDataBytes+6*i, uint(i))
		}
	})
	if !e.ReadVLEWInto(3, bank, row, v, data, code) || !bytes.Equal(data, clean) || !bytes.Equal(code, cleanCode) {
		t.Fatal("correctable VLEW not served corrected")
	}
	stored, storedCode := make([]byte, g.VLEWDataBytes), make([]byte, g.VLEWCodeBytes)
	if e.rank.Chip(3).ReadVLEWInto(stored, storedCode, bank, row, v); bytes.Equal(stored, clean) {
		t.Fatal("ReadVLEWInto wrote its correction back")
	}
	if e.ReadVLEWInto(4, bank, row, v, data, code) {
		t.Error("VLEW beyond the code served")
	}
	const failed = 5
	e.Quiesce(func() { e.rank.FailChip(failed) })
	if e.ReadVLEWInto(failed, bank, row, v, data, code) {
		t.Error("failed chip's VLEW served")
	}
	if _, err := e.BeginMigration(failed, 0); err != nil {
		t.Fatal(err)
	}
	if e.ReadVLEWInto(0, bank, row, v, data, code) {
		t.Error("VLEW served mid-migration")
	}
}
