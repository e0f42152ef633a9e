package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"chipkillpm/internal/core"
	"chipkillpm/internal/rank"
)

func testEngine(t testing.TB, shards int) *Engine {
	t.Helper()
	r, err := rank.New(rank.PaperConfig(4, 8, 1024, 7))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(r, Config{Shards: shards, Core: core.DefaultConfig()})
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

func populate(t testing.TB, e *Engine) {
	t.Helper()
	buf := make([]byte, e.BlockBytes())
	for b := int64(0); b < e.Blocks(); b++ {
		fillBlock(buf, b, 0)
		if err := e.WriteBlockInitial(b, buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardOfPartitionsBanks(t *testing.T) {
	e := testEngine(t, 0)
	if e.Shards() != 4 {
		t.Fatalf("default shards = %d, want 4 (one per bank)", e.Shards())
	}
	counts := make([]int64, e.Shards())
	for b := int64(0); b < e.Blocks(); b++ {
		s := e.shardOf(b)
		bank := e.rank.Locate(b).Bank
		if s != bank%e.Shards() {
			t.Fatalf("block %d: shard %d but bank %d", b, s, bank)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns no blocks", s)
		}
	}
	// Clamping: more shards than banks collapses to one per bank.
	if e2 := testEngine(t, 64); e2.Shards() != 4 {
		t.Fatalf("shards clamped to %d, want 4", e2.Shards())
	}
}

func TestSingleOpRoundTrip(t *testing.T) {
	e := testEngine(t, 0)
	populate(t, e)
	want := make([]byte, e.BlockBytes())
	got := make([]byte, e.BlockBytes())
	for b := int64(0); b < e.Blocks(); b += 17 {
		fillBlock(want, b, 1)
		if err := e.WriteBlock(b, want); err != nil {
			t.Fatal(err)
		}
		if err := e.ReadBlockInto(b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d round trip mismatch", b)
		}
	}
	st := e.Stats()
	// Every OMV miss performs one internal clean read on top of the demand
	// reads, so clean reads = demand reads + misses on an error-free rank.
	if st.Reads == 0 || st.Writes == 0 || st.ReadsClean != st.Reads+st.OMVMisses {
		t.Fatalf("unexpected stats after clean round trips: %+v", st)
	}
}

func TestBatchRoundTripAndOrdering(t *testing.T) {
	e := testEngine(t, 0)
	populate(t, e)
	const n = 96
	blocks := make([]int64, n)
	bufs := make([][]byte, n)
	errs := make([]error, n)
	rng := rand.New(rand.NewSource(3))
	for i := range blocks {
		blocks[i] = rng.Int63n(e.Blocks())
		bufs[i] = make([]byte, e.BlockBytes())
		fillBlock(bufs[i], blocks[i], i)
	}
	// Duplicate blocks within the batch: a block always maps to one shard,
	// and per-shard ordering follows slice order, so the last slice entry
	// writing a block must win. (The rng can produce duplicates of its
	// own, so compute each block's winning version explicitly.)
	blocks[40] = blocks[10]
	fillBlock(bufs[40], blocks[40], 40)
	winner := make(map[int64]int, n)
	for i, b := range blocks {
		winner[b] = i
	}
	if fails := e.WriteBlocks(blocks, bufs, errs); fails != 0 {
		t.Fatalf("WriteBlocks failed %d ops, first errs: %v", fails, firstErr(errs))
	}
	got := make([][]byte, n)
	for i := range got {
		got[i] = make([]byte, e.BlockBytes())
	}
	if fails := e.ReadBlocks(blocks, got, errs); fails != 0 {
		t.Fatalf("ReadBlocks failed %d ops, first errs: %v", fails, firstErr(errs))
	}
	want := make([]byte, e.BlockBytes())
	for i := range got {
		fillBlock(want, blocks[i], winner[blocks[i]])
		if !bytes.Equal(got[i], want) {
			t.Fatalf("batch slot %d (block %d): mismatch", i, blocks[i])
		}
	}
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func TestBatchErrorReporting(t *testing.T) {
	e := testEngine(t, 0)
	populate(t, e)
	e.DisableBlock(5)
	if !e.BlockDisabled(5) {
		t.Fatal("block 5 should be disabled")
	}
	blocks := []int64{1, 5, 9}
	bufs := [][]byte{
		make([]byte, e.BlockBytes()),
		make([]byte, e.BlockBytes()),
		make([]byte, e.BlockBytes()),
	}
	errs := make([]error, 3)
	if fails := e.ReadBlocks(blocks, bufs, errs); fails != 1 {
		t.Fatalf("ReadBlocks fails = %d, want 1", fails)
	}
	if errs[0] != nil || errs[2] != nil || !errors.Is(errs[1], core.ErrBlockDisabled) {
		t.Fatalf("errs = %v, want only slot 1 disabled", errs)
	}
	// nil errs slice is accepted; the count still reports the failure.
	if fails := e.ReadBlocks(blocks, bufs, nil); fails != 1 {
		t.Fatalf("ReadBlocks with nil errs fails = %d, want 1", fails)
	}
}

// twinOMV is a shadow-backed OMVProvider that hits for two blocks in
// three and misses for the rest, so one write stream exercises both
// write paths. The hit decision is a function of the block, not of the
// order writes arrive in, so a batch and its one-at-a-time replay draw
// the same decisions.
type twinOMV struct {
	buf []byte
	bb  int64
}

func (s *twinOMV) OMV(block int64) ([]byte, bool) {
	if block%3 == 0 {
		return nil, false
	}
	return s.buf[block*s.bb : (block+1)*s.bb], true
}

// TestWriteBlocksMatchesWriteBlock pins the batched write path against
// the per-op one: the same writes, issued through WriteBlocks on one rank
// and one at a time through WriteBlock on an identically seeded, equally
// drifted twin, must leave equal Stats and Telemetry, equal cells and
// VLEW codes on every chip once the rows are closed, and the same
// read-back. Each batch names a block at most once; its shard groups run
// row-sorted, the replay runs in slice order.
func TestWriteBlocksMatchesWriteBlock(t *testing.T) {
	twin := func() (*Engine, *twinOMV) {
		r, err := rank.New(rank.PaperConfig(4, 8, 1024, 7))
		if err != nil {
			t.Fatal(err)
		}
		omv := &twinOMV{}
		e, err := New(r, Config{Core: core.DefaultConfig(), OMV: omv})
		if err != nil {
			t.Fatal(err)
		}
		populate(t, e)
		omv.bb = int64(e.BlockBytes())
		omv.buf = make([]byte, e.Blocks()*omv.bb)
		for b := int64(0); b < e.Blocks(); b++ {
			fillBlock(omv.buf[b*omv.bb:(b+1)*omv.bb], b, 0)
		}
		e.Quiesce(func() { r.InjectRetentionErrors(2e-4) })
		return e, omv
	}
	batched, bomv := twin()
	serial, somv := twin()

	const batches, n = 24, 48
	rng := rand.New(rand.NewSource(5))
	blocks := make([]int64, n)
	bufs := make([][]byte, n)
	errs := make([]error, n)
	for i := range bufs {
		bufs[i] = make([]byte, batched.BlockBytes())
	}
	for k := 1; k <= batches; k++ {
		for i, p := range rng.Perm(int(batched.Blocks()))[:n] {
			blocks[i] = int64(p)
			fillBlock(bufs[i], blocks[i], k)
		}
		if fails := batched.WriteBlocks(blocks, bufs, errs); fails != 0 {
			t.Fatalf("batch %d: %d writes failed, first: %v", k, fails, firstErr(errs))
		}
		for i, b := range blocks {
			if err := serial.WriteBlock(b, bufs[i]); err != nil {
				t.Fatalf("batch %d: serial write of block %d: %v", k, b, err)
			}
			copy(somv.buf[b*somv.bb:(b+1)*somv.bb], bufs[i])
			copy(bomv.buf[b*bomv.bb:(b+1)*bomv.bb], bufs[i])
		}
	}
	if st := serial.Stats(); st.OMVHits == 0 || st.OMVMisses == 0 || st.ReadsRSCorrected == 0 {
		t.Fatalf("writes missed a path (OMV hit, OMV miss, corrected old value): %+v", st)
	}

	if bs, ss := batched.Stats(), serial.Stats(); bs != ss {
		t.Fatalf("Stats differ\nbatched %+v\nserial  %+v", bs, ss)
	}
	if bt, st := batched.Telemetry(), serial.Telemetry(); !reflect.DeepEqual(bt, st) {
		t.Fatalf("Telemetry differs\nbatched %+v\nserial  %+v", bt, st)
	}
	batched.Rank().CloseAllRows()
	serial.Rank().CloseAllRows()
	g := batched.Rank().Config().Geometry
	bcode, scode := make([]byte, g.VLEWCodeBytes), make([]byte, g.VLEWCodeBytes)
	for ci := 0; ci < batched.Rank().NumChips(); ci++ {
		bc, sc := batched.Rank().Chip(ci), serial.Rank().Chip(ci)
		if !bytes.Equal(bc.CellArray(), sc.CellArray()) {
			t.Fatalf("chip %d: cells differ", ci)
		}
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.RowsPerBank; row++ {
				for v := 0; v < g.VLEWsPerRow(); v++ {
					bc.ReadCodeInto(bcode, bank, row, v)
					sc.ReadCodeInto(scode, bank, row, v)
					if !bytes.Equal(bcode, scode) {
						t.Fatalf("chip %d bank %d row %d VLEW %d: codes differ", ci, bank, row, v)
					}
				}
			}
		}
	}
	got, want := make([]byte, batched.BlockBytes()), make([]byte, serial.BlockBytes())
	for b := int64(0); b < batched.Blocks(); b++ {
		berr, serr := batched.ReadBlockInto(b, got), serial.ReadBlockInto(b, want)
		if berr != nil || serr != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d: batched (%v) and serial (%v) read-backs differ", b, berr, serr)
		}
		if !bytes.Equal(want, somv.buf[b*somv.bb:(b+1)*somv.bb]) {
			t.Fatalf("block %d: read-back is not the last write", b)
		}
	}
}

// TestConcurrentShadow drives concurrent readers and writers across all
// shards with per-goroutine shadow copies (each goroutine owns a disjoint
// stripe of blocks, so its shadow is authoritative), plus a concurrent
// Stats poller — the -race workout for the revised concurrency contracts.
func TestConcurrentShadow(t *testing.T) {
	e := testEngine(t, 0)
	populate(t, e)
	const (
		workers = 8
		ops     = 400
		batch   = 16
	)
	stop := make(chan struct{})
	var pollerWG sync.WaitGroup
	pollerWG.Add(1)
	go func() {
		defer pollerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := e.Stats()
				if st.Uncorrectable != 0 {
					panic(fmt.Sprintf("uncorrectable during clean run: %+v", st))
				}
			}
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 911))
			// Blocks owned by this worker: b % workers == w.
			owned := make([]int64, 0, e.Blocks()/workers+1)
			for b := int64(w); b < e.Blocks(); b += workers {
				owned = append(owned, b)
			}
			shadow := make(map[int64]int, len(owned)) // block -> version
			buf := make([]byte, e.BlockBytes())
			want := make([]byte, e.BlockBytes())
			bblocks := make([]int64, batch)
			bbufs := make([][]byte, batch)
			for i := range bbufs {
				bbufs[i] = make([]byte, e.BlockBytes())
			}
			for op := 0; op < ops; op++ {
				switch rng.Intn(3) {
				case 0: // single read + verify
					b := owned[rng.Intn(len(owned))]
					if err := e.ReadBlockInto(b, buf); err != nil {
						errCh <- fmt.Errorf("worker %d read %d: %w", w, b, err)
						return
					}
					fillBlock(want, b, shadow[b])
					if !bytes.Equal(buf, want) {
						errCh <- fmt.Errorf("worker %d block %d: stale data", w, b)
						return
					}
				case 1: // single write
					b := owned[rng.Intn(len(owned))]
					shadow[b]++
					fillBlock(buf, b, shadow[b])
					if err := e.WriteBlock(b, buf); err != nil {
						errCh <- fmt.Errorf("worker %d write %d: %w", w, b, err)
						return
					}
				case 2: // batch read + verify
					for i := range bblocks {
						bblocks[i] = owned[rng.Intn(len(owned))]
					}
					if fails := e.ReadBlocks(bblocks, bbufs, nil); fails != 0 {
						errCh <- fmt.Errorf("worker %d batch read: %d fails", w, fails)
						return
					}
					for i, b := range bblocks {
						fillBlock(want, b, shadow[b])
						if !bytes.Equal(bbufs[i], want) {
							errCh <- fmt.Errorf("worker %d batch block %d: stale data", w, b)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollerWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := e.Stats()
	if st.ReadsClean != st.Reads+st.OMVMisses {
		t.Fatalf("clean run had non-clean reads: %+v", st)
	}
}

func TestStatsAggregateAcrossShards(t *testing.T) {
	e := testEngine(t, 0)
	populate(t, e)
	e.ResetStats()
	buf := make([]byte, e.BlockBytes())
	const reads = 64
	for i := 0; i < reads; i++ {
		// Walk rows so every bank (hence every shard) is hit.
		b := int64(i) * e.bpr % e.Blocks()
		if err := e.ReadBlockInto(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Reads != reads || st.ReadsClean != reads {
		t.Fatalf("aggregated stats = %+v, want %d clean reads", st, reads)
	}
	e.ResetStats()
	if st := e.Stats(); st.Reads != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestBootScrubAndQuiesce(t *testing.T) {
	e := testEngine(t, 0)
	populate(t, e)
	e.Quiesce(func() {
		e.rank.InjectRetentionErrors(1e-5)
	})
	rep := e.BootScrub()
	if rep.VLEWsScrubbed == 0 {
		t.Fatalf("scrub report: %+v", rep)
	}
	if st := e.Stats(); st.ScrubbedVLEWs != rep.VLEWsScrubbed {
		t.Fatalf("scrub counters not visible in aggregated stats: %+v vs %+v", st, rep)
	}
	// Post-scrub reads are clean everywhere.
	buf := make([]byte, e.BlockBytes())
	want := make([]byte, e.BlockBytes())
	for b := int64(0); b < e.Blocks(); b += 13 {
		if err := e.ReadBlockInto(b, buf); err != nil {
			t.Fatal(err)
		}
		fillBlock(want, b, 0)
		if !bytes.Equal(buf, want) {
			t.Fatalf("block %d corrupted after scrub", b)
		}
	}
}

func TestEnterDegradedModeAllShards(t *testing.T) {
	e := testEngine(t, 0)
	populate(t, e)
	const failed = 3
	e.Quiesce(func() {
		e.rank.FailChip(failed)
	})
	if err := e.EnterDegradedMode(failed); err != nil {
		t.Fatal(err)
	}
	if d, chip := e.Degraded(); !d || chip != failed {
		t.Fatalf("Degraded() = %v, %d", d, chip)
	}
	// Every block must read back correctly through every shard's
	// controller, proving all shards adopted the remapped layout.
	buf := make([]byte, e.BlockBytes())
	want := make([]byte, e.BlockBytes())
	for b := int64(0); b < e.Blocks(); b++ {
		if err := e.ReadBlockInto(b, buf); err != nil {
			t.Fatalf("degraded read %d: %v", b, err)
		}
		fillBlock(want, b, 0)
		if !bytes.Equal(buf, want) {
			t.Fatalf("block %d wrong after degraded remap", b)
		}
	}
	// Degraded writes flow through shards too.
	fillBlock(want, 42, 9)
	if err := e.WriteBlock(42, want); err != nil {
		t.Fatal(err)
	}
	if err := e.ReadBlockInto(42, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("degraded write round trip mismatch")
	}
}

// TestShardOfMatchesLocate pins shardOf's shift-and-mask form against
// the division it replaces: every block's shard is its rank.Locate bank
// modulo the shard count, on the power-of-two paper geometry, with fewer
// shards than banks, with a shard count that does not divide the banks,
// and on non-power-of-two bank and blocks-per-row counts (the division
// path).
func TestShardOfMatchesLocate(t *testing.T) {
	for _, tc := range []struct {
		banks, rowBytes, shards int
		pow2                    bool
	}{
		{4, 1024, 0, true},
		{4, 1024, 2, true},
		{4, 1024, 1, true},
		{4, 1024, 3, false},
		{3, 1024, 0, false},
		{3, 1024, 2, false},
		{4, 768, 2, false},
	} {
		r, err := rank.New(rank.PaperConfig(tc.banks, 4, tc.rowBytes, 7))
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(r, Config{Shards: tc.shards, Core: core.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%d banks, %d B rows, %d shards", tc.banks, tc.rowBytes, e.Shards())
		if got := e.shardMask >= 0; got != tc.pow2 {
			t.Fatalf("%s: shift-and-mask form %v, want %v", name, got, tc.pow2)
		}
		for b := int64(0); b < e.Blocks(); b++ {
			if got, want := e.shardOf(b), r.Locate(b).Bank%e.Shards(); got != want {
				t.Fatalf("%s: block %d: shardOf %d, Locate bank %% shards = %d", name, b, got, want)
			}
		}
	}
}

// TestConcurrentReadCountsExact pins that striping the lock-free read
// counters loses nothing: G goroutines each read the same M blocks, on a
// clean engine and on one aged to RBER 2e-4, and every read outcome,
// bus count and per-chip correction comes out exactly G times what one
// serial pass over those blocks records. Reads never write back under
// the default config, so each pass sees the same media.
func TestConcurrentReadCountsExact(t *testing.T) {
	const g = 8
	for _, rber := range []float64{0, 2e-4} {
		e := testEngine(t, 0)
		populate(t, e)
		if rber > 0 {
			e.Quiesce(func() { e.rank.InjectRetentionErrors(rber) })
		}
		m := e.Blocks()
		ctrlCorrections := func() (n int64) {
			for _, s := range e.shards {
				s.mu.Lock()
				for _, ct := range s.ctrl.Telemetry().Chips {
					n += ct.RSCorrections
				}
				s.mu.Unlock()
			}
			return n
		}
		pass := func() error {
			buf := make([]byte, e.BlockBytes())
			for b := int64(0); b < m; b++ {
				if err := e.ReadBlockInto(b, buf); err != nil {
					return fmt.Errorf("block %d: %w", b, err)
				}
			}
			return nil
		}

		e.ResetStats()
		tel0 := e.Telemetry()
		if err := pass(); err != nil {
			t.Fatal(err)
		}
		one, tel1, ctrl1 := e.Stats(), e.Telemetry(), ctrlCorrections()
		e.ResetStats()
		var wg sync.WaitGroup
		errs := make(chan error, g)
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- pass()
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		st, tel2 := e.Stats(), e.Telemetry()

		if st.Reads != g*m {
			t.Fatalf("RBER %g: %d reads counted, want %d", rber, st.Reads, g*m)
		}
		want := core.Stats{
			Reads: g * one.Reads, ReadsClean: g * one.ReadsClean,
			ReadsRSCorrected: g * one.ReadsRSCorrected, ReadsVLEWFallback: g * one.ReadsVLEWFallback,
			BitsCorrectedRS: g * one.BitsCorrectedRS, BitsCorrectedVLEW: g * one.BitsCorrectedVLEW,
			Uncorrectable: g * one.Uncorrectable, BlockFetches: g * one.BlockFetches,
		}
		if st != want {
			t.Fatalf("RBER %g: %d concurrent passes\ngot  %+v\nwant %+v", rber, g, st, want)
		}
		if rber == 0 && (st.ReadsClean != st.Reads || st.BlockFetches != st.Reads) {
			t.Fatalf("clean engine: reads %d, clean %d, fetches %d", st.Reads, st.ReadsClean, st.BlockFetches)
		}
		if rber > 0 && (st.ReadsRSCorrected == 0 || st.ReadsVLEWFallback == 0) {
			t.Fatalf("RBER %g too light to exercise both correction paths: %+v", rber, st)
		}

		// Per chip, the concurrent passes corrected G times what the
		// serial one did, and their rank-wide sum splits exactly into the
		// lock-free path's corrections (SeqStats restarts at ResetStats)
		// and the controllers' own.
		d1, d2 := tel1.Delta(tel0), tel2.Delta(tel1)
		var total int64
		for ci := range d2.Chips {
			if d2.Chips[ci].RSCorrections != g*d1.Chips[ci].RSCorrections {
				t.Fatalf("RBER %g: chip %d corrected %d, want %d x %d", rber, ci,
					d2.Chips[ci].RSCorrections, g, d1.Chips[ci].RSCorrections)
			}
			total += d2.Chips[ci].RSCorrections
		}
		ctrl := ctrlCorrections() - ctrl1
		if fast := e.SeqStats().FastCorrected; total != fast+ctrl {
			t.Fatalf("RBER %g: chips corrected %d, lock-free path %d + controllers %d", rber, total, fast, ctrl)
		}
	}
}
