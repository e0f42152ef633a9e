package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"chipkillpm/internal/core"
	"chipkillpm/internal/rank"
)

func testEngine(t testing.TB, shards, fanout int) *Engine {
	t.Helper()
	r, err := rank.New(rank.PaperConfig(4, 8, 1024, 7))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(r, Config{Shards: shards, Core: core.DefaultConfig(), BatchFanOut: fanout})
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
	e := testEngine(t, 0, 0)
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
	if e2 := testEngine(t, 64, 0); e2.Shards() != 4 {
		t.Fatalf("shards clamped to %d, want 4", e2.Shards())
	}
}

func TestSingleOpRoundTrip(t *testing.T) {
	e := testEngine(t, 0, 0)
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
	e := testEngine(t, 0, 2)
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
	e := testEngine(t, 0, 1)
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

// TestConcurrentShadow drives concurrent readers and writers across all
// shards with per-goroutine shadow copies (each goroutine owns a disjoint
// stripe of blocks, so its shadow is authoritative), plus a concurrent
// Stats poller — the -race workout for the revised concurrency contracts.
func TestConcurrentShadow(t *testing.T) {
	e := testEngine(t, 0, 0)
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

// TestReadAllocsZero pins the acceptance criterion: the steady-state
// clean-read path performs zero allocations per operation, for both the
// single-op and the batched entry points, and so does a read the
// lock-free path corrects.
func TestReadAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	e := testEngine(t, 0, 1) // fan-out 1: batches stay on the caller
	populate(t, e)
	dst := make([]byte, e.BlockBytes())
	var b int64
	blocks := e.Blocks()
	if allocs := testing.AllocsPerRun(500, func() {
		if err := e.ReadBlockInto(b, dst); err != nil {
			t.Fatal(err)
		}
		b = (b + 7) % blocks
	}); allocs != 0 {
		t.Fatalf("ReadBlockInto allocates %.1f objects/op, want 0", allocs)
	}
	const n = 32
	bblocks := make([]int64, n)
	bufs := make([][]byte, n)
	errs := make([]error, n)
	for i := range bufs {
		bufs[i] = make([]byte, e.BlockBytes())
		bblocks[i] = int64(i * 3)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if fails := e.ReadBlocks(bblocks, bufs, errs); fails != 0 {
			t.Fatal("batch read failed")
		}
	}); allocs != 0 {
		t.Fatalf("ReadBlocks allocates %.1f objects/batch, want 0", allocs)
	}

	// Locked-path variant: with the seqlock off every clean read takes the
	// shard mutex, the fallback a reader parked behind a writer lands on.
	locked, err := New(e.Rank(), Config{Core: core.DefaultConfig(), DisableSeqlock: true})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if err := locked.ReadBlockInto(b, dst); err != nil {
			t.Fatal(err)
		}
		b = (b + 7) % blocks
	}); allocs != 0 {
		t.Fatalf("ReadBlockInto (locked path) allocates %.1f objects/op, want 0", allocs)
	}
	if locked.SeqStats() != (SeqStats{}) || locked.Stats().ReadsClean == 0 {
		t.Fatalf("locked-path pin took the wrong path: %+v %+v", locked.SeqStats(), locked.Stats())
	}

	// Drifted variant: at the paper's runtime RBER about one read in nine
	// needs a one-symbol fix, which the lock-free path applies in place.
	// A first pass finds the blocks it corrects; wider patterns take the
	// locked decoder, whose corrected read TestWriteAllocsZero pins.
	drift := testEngine(t, 0, 1)
	populate(t, drift)
	drift.Quiesce(func() { drift.rank.InjectRetentionErrors(2e-4) })
	var fixed []int64
	for blk := int64(0); blk < drift.Blocks(); blk++ {
		before := drift.SeqStats().FastCorrected
		if err := drift.ReadBlockInto(blk, dst); err != nil {
			t.Fatal(err)
		}
		if drift.SeqStats().FastCorrected != before {
			fixed = append(fixed, blk)
		}
	}
	if len(fixed) == 0 {
		t.Fatal("drifted rank has no block the lock-free path corrects")
	}
	before := drift.SeqStats().FastCorrected
	i := 0
	if allocs := testing.AllocsPerRun(500, func() {
		if err := drift.ReadBlockInto(fixed[i%len(fixed)], dst); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Fatalf("lock-free corrected read allocates %.1f objects/op, want 0", allocs)
	}
	if got := drift.SeqStats().FastCorrected - before; got != int64(i) {
		t.Fatalf("lock-free path corrected %d of %d pinned reads", got, i)
	}
}

// shadowOMV is an always-hit OMVProvider backed by a flat shadow of every
// block's current contents. The alloc pins keep the shadow in sync after
// each write, so the XOR deltas the controller derives from it match the
// stored data and parity stays valid.
type shadowOMV struct {
	buf []byte
	bb  int64
}

func (s *shadowOMV) OMV(block int64) ([]byte, bool) {
	return s.buf[block*s.bb : (block+1)*s.bb], true
}

// TestWriteAllocsZero pins the tentpole acceptance criterion: the
// steady-state OMV write path performs zero allocations per operation —
// single-op and batched, OMV hit and OMV miss — and the corrected-read
// path under injected drift is likewise allocation-free (single-symbol RS
// corrections draw from the controller's pooled scratch).
func TestWriteAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	// OMV-miss variant: the default NoOMV provider makes every write fetch
	// its old value from memory first.
	e := testEngine(t, 0, 1)
	populate(t, e)
	buf := make([]byte, e.BlockBytes())
	blocks := e.Blocks()
	var b int64
	version := 0
	if allocs := testing.AllocsPerRun(500, func() {
		version++
		fillBlock(buf, b, version)
		if err := e.WriteBlock(b, buf); err != nil {
			t.Fatal(err)
		}
		b = (b + 7) % blocks
	}); allocs != 0 {
		t.Fatalf("WriteBlock (OMV miss) allocates %.1f objects/op, want 0", allocs)
	}
	if st := e.Stats(); st.OMVMisses == 0 {
		t.Fatal("OMV-miss pin never exercised the miss path")
	}

	// Row-local variant: consecutive blocks stay in one open row, so the
	// EUR coalesces their deltas and the run crosses row-close drains.
	b = 0
	closes := e.Rank().Stats().RowCloses
	if allocs := testing.AllocsPerRun(500, func() {
		version++
		fillBlock(buf, b, version)
		if err := e.WriteBlock(b, buf); err != nil {
			t.Fatal(err)
		}
		b = (b + 1) % blocks
	}); allocs != 0 {
		t.Fatalf("WriteBlock (row-local run) allocates %.1f objects/op, want 0", allocs)
	}
	if got := e.Rank().Stats().RowCloses - closes; got == 0 || got >= 500 {
		t.Fatalf("row-local pin closed %d rows over ~500 writes, want a few coalesced drains", got)
	}

	const n = 32
	bblocks := make([]int64, n)
	bufs := make([][]byte, n)
	errs := make([]error, n)
	for i := range bufs {
		bufs[i] = make([]byte, e.BlockBytes())
		bblocks[i] = int64(i * 3)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		version++
		for i := range bufs {
			fillBlock(bufs[i], bblocks[i], version)
		}
		if fails := e.WriteBlocks(bblocks, bufs, errs); fails != 0 {
			t.Fatal("batch write failed")
		}
	}); allocs != 0 {
		t.Fatalf("WriteBlocks allocates %.1f objects/batch, want 0", allocs)
	}

	// OMV-hit variant: an always-hit provider, kept coherent by the test.
	r2, err := rank.New(rank.PaperConfig(4, 8, 1024, 7))
	if err != nil {
		t.Fatal(err)
	}
	sh := &shadowOMV{}
	e2, err := New(r2, Config{Core: core.DefaultConfig(), OMV: sh, BatchFanOut: 1})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, e2)
	sh.bb = int64(e2.BlockBytes())
	sh.buf = make([]byte, e2.Blocks()*sh.bb)
	for bb := int64(0); bb < e2.Blocks(); bb++ {
		fillBlock(sh.buf[bb*sh.bb:(bb+1)*sh.bb], bb, 0)
	}
	b, version = 0, 0
	if allocs := testing.AllocsPerRun(500, func() {
		version++
		fillBlock(buf, b, version)
		if err := e2.WriteBlock(b, buf); err != nil {
			t.Fatal(err)
		}
		copy(sh.buf[b*sh.bb:(b+1)*sh.bb], buf)
		b = (b + 7) % e2.Blocks()
	}); allocs != 0 {
		t.Fatalf("WriteBlock (OMV hit) allocates %.1f objects/op, want 0", allocs)
	}
	if st := e2.Stats(); st.OMVHits == 0 || st.OMVMisses != 0 {
		t.Fatalf("OMV-hit pin took the wrong path: %+v", st)
	}

	// Corrected-read variant: flip one stored data bit, then pin the
	// demand-read correction path. With write-back disabled (the default)
	// the flip persists, so every read pays a single-symbol RS correction.
	bc := int64(5)
	loc := e.Rank().Locate(bc)
	e.Quiesce(func() {
		e.Rank().Chip(0).FlipDataBit(loc.Bank, loc.Row, loc.Col, 3)
	})
	dst := make([]byte, e.BlockBytes())
	before := e.Stats().ReadsRSCorrected
	if allocs := testing.AllocsPerRun(500, func() {
		if err := e.ReadBlockInto(bc, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("corrected read allocates %.1f objects/op, want 0", allocs)
	}
	if got := e.Stats().ReadsRSCorrected - before; got == 0 {
		t.Fatal("corrected-read pin never took the RS correction path")
	}
}

func TestStatsAggregateAcrossShards(t *testing.T) {
	e := testEngine(t, 0, 1)
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
	e := testEngine(t, 0, 0)
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
	e := testEngine(t, 0, 0)
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
