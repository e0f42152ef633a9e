package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"chipkillpm/internal/core"
	"chipkillpm/internal/rank"
)

// checkVersioned verifies buf is a self-consistent fillBlock image of
// block at *some* version — the whole point of the seqlock protocol is
// that a reader may observe any committed version, but never a torn mix
// of two. fillBlock xors version*131 into every byte, so the version
// byte recovered from buf[0] must explain the rest of the block.
func checkVersioned(buf []byte, block int64) error {
	v := buf[0] ^ byte(block)
	for i := range buf {
		if buf[i] != byte(block>>uint(8*(i&7)))^v^byte(i) {
			return fmt.Errorf("block %d: torn read (byte %d inconsistent with version byte %#x)", block, i, v)
		}
	}
	return nil
}

// torture runs four writers, each owning a disjoint stripe of the first
// hot blocks and writing fresh fillBlock versions into it, against four
// readers that cross into every stripe through read until the writers
// finish. It returns the first read that failed or did not return some
// committed version whole. hot must be a multiple of four.
func torture(e *Engine, hot int64, read func(block int64, dst []byte) error) error {
	const (
		writers = 4
		readers = 4
		ops     = 500
	)
	var wwg, rwg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	stop := make(chan struct{})

	version := make([]int, hot) // owned slot per block, writers disjoint
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(w)*277 + 1))
			buf := make([]byte, e.BlockBytes())
			for op := 0; op < ops; op++ {
				b := rng.Int63n(hot/writers)*writers + int64(w) // disjoint ownership
				version[b]++
				fillBlock(buf, b, version[b])
				if err := e.WriteBlock(b, buf); err != nil {
					errCh <- fmt.Errorf("writer %d block %d: %w", w, b, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(r)*991 + 7))
			buf := make([]byte, e.BlockBytes())
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := rng.Int63n(hot)
				if err := read(b, buf); err != nil {
					errCh <- fmt.Errorf("reader %d block %d: %w", r, b, err)
					return
				}
				if err := checkVersioned(buf, b); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// TestSeqlockTorture hammers the lock-free read path from readers that
// deliberately cross into blocks other goroutines are writing: unlike
// TestConcurrentShadow (which verifies exact per-owner versions), the
// invariant here is atomicity — every read returns some committed
// version in full, never a tear. Under -race the same workload runs
// through the locked path and the detector audits the fallback story.
func TestSeqlockTorture(t *testing.T) {
	e := testEngine(t, 0, 0)
	populate(t, e)
	if err := torture(e, e.Blocks(), e.ReadBlockInto); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Uncorrectable != 0 {
		t.Fatalf("clean torture produced uncorrectables: %+v", st)
	}
	if st.ReadsClean != st.Reads+st.OMVMisses {
		t.Fatalf("stats identity broken after torture: %+v", st)
	}
	if e.SeqlockEnabled() {
		ss := e.SeqStats()
		if ss.FastReads == 0 {
			t.Fatalf("seqlock enabled but no read took the fast path: %+v", ss)
		}
		t.Logf("seqlock outcomes: %+v", ss)
	}
}

// TestSeqlockTortureUnderDrift reruns the atomicity check on a rank aged
// to the paper's runtime RBER before the writers start. XOR writes carry
// the flipped bits forward, so readers keep correcting single symbols on
// the lock-free path while writers race them: every read must still be
// some committed version whole. A test-local reader with the
// revalidation removed then shows the harness really produces tears the
// checker flags.
func TestSeqlockTortureUnderDrift(t *testing.T) {
	e := testEngine(t, 0, 0)
	populate(t, e)
	e.Quiesce(func() { e.rank.InjectRetentionErrors(2e-4) })
	if err := torture(e, 256, e.ReadBlockInto); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Uncorrectable != 0 || st.ReadsRSCorrected == 0 {
		t.Fatalf("drift torture: want RS-corrected reads and no uncorrectables: %+v", st)
	}
	if !e.SeqlockEnabled() {
		return // race build: the locked path served everything
	}
	ss := e.SeqStats()
	if ss.FastCorrected == 0 {
		t.Fatalf("no drifted read was corrected on the lock-free path: %+v", ss)
	}
	t.Logf("seqlock outcomes under drift: %+v", ss)

	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("tear detection needs a writer and a reader running in parallel")
	}
	// A clean rank, so that anything the broken reader serves wrong is a
	// tear rather than a multi-symbol drift pattern it did not correct.
	clean := testEngine(t, 0, 0)
	populate(t, clean)
	broken := func(block int64, dst []byte) error {
		unvalidatedRead(clean, block, dst)
		return nil
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		err := torture(clean, 8, broken)
		if err != nil {
			t.Logf("unvalidated reader caught: %v", err)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the checker never caught a reader that skips revalidation")
		}
	}
}

// unvalidatedRead is readFast's gather, syndrome word and one-symbol fix
// with the sequence checks removed. Because the syndrome word is itself a
// tear detector (a mix of two versions is almost never within one symbol
// of a codeword), it also serves the words the corrector declines instead
// of parking on the mutex: what it proves is that the torture harness
// overlaps readers with writers and that checkVersioned flags what an
// unvalidated reader returns.
func unvalidatedRead(e *Engine, block int64, dst []byte) {
	off := e.geo.offsetOf(block)
	for i := range e.cells {
		binary.LittleEndian.PutUint64(dst[8*i:], binary.LittleEndian.Uint64(e.cells[i][off:]))
	}
	if syn := e.rsCode.SyndromeWord(dst, binary.LittleEndian.Uint64(e.parityCells[off:])); syn != 0 {
		e.rsCode.CorrectWord(dst, syn)
	}
}

// TestFastCorrectionsFoldLikeLocked pins the counter folding: two
// identically seeded ranks aged to RBER 2e-4, read block for block through
// a seqlock engine and a DisableSeqlock engine, must report equal Stats
// and Telemetry field for field — per-chip RSCorrections included — and
// equal data. The second pass goes through the batch API after a
// ResetStats, which zeroes Stats on both sides and leaves the lifetime
// per-chip counts alone on both.
func TestFastCorrectionsFoldLikeLocked(t *testing.T) {
	build := func(disable bool) *Engine {
		r, err := rank.New(rank.PaperConfig(4, 8, 1024, 7))
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(r, Config{Core: core.DefaultConfig(), DisableSeqlock: disable})
		if err != nil {
			t.Fatal(err)
		}
		populate(t, e)
		e.Quiesce(func() { e.rank.InjectRetentionErrors(2e-4) })
		return e
	}
	fast, locked := build(false), build(true)
	compare := func(pass string) {
		t.Helper()
		if fs, ls := fast.Stats(), locked.Stats(); fs != ls {
			t.Fatalf("%s: Stats differ\nseqlock %+v\nlocked  %+v", pass, fs, ls)
		}
		if ft, lt := fast.Telemetry(), locked.Telemetry(); !reflect.DeepEqual(ft, lt) {
			t.Fatalf("%s: Telemetry differs\nseqlock %+v\nlocked  %+v", pass, ft, lt)
		}
	}

	got, want := make([]byte, fast.BlockBytes()), make([]byte, fast.BlockBytes())
	for b := int64(0); b < fast.Blocks(); b++ {
		ferr, lerr := fast.ReadBlockInto(b, got), locked.ReadBlockInto(b, want)
		if ferr != nil || lerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d: seqlock (%v) and locked (%v) reads differ", b, ferr, lerr)
		}
	}
	compare("single reads")
	if fast.SeqlockEnabled() && fast.SeqStats().FastCorrected == 0 {
		t.Fatalf("no read was corrected on the lock-free path: %+v", fast.SeqStats())
	}
	if st := fast.Stats(); st.ReadsRSCorrected == 0 || st.ReadsVLEWFallback == 0 {
		t.Fatalf("drift too light to exercise both correction paths: %+v", st)
	}

	fast.ResetStats()
	locked.ResetStats()
	const n = 64
	ids := make([]int64, n)
	fbufs, lbufs := make([][]byte, n), make([][]byte, n)
	for i := range fbufs {
		fbufs[i], lbufs[i] = make([]byte, fast.BlockBytes()), make([]byte, fast.BlockBytes())
	}
	for b := int64(0); b < fast.Blocks(); b += n {
		for i := range ids {
			ids[i] = b + int64(i)
		}
		if ff, lf := fast.ReadBlocks(ids, fbufs, nil), locked.ReadBlocks(ids, lbufs, nil); ff != 0 || lf != 0 {
			t.Fatalf("batch at %d: %d seqlock and %d locked failures", b, ff, lf)
		}
		for i := range fbufs {
			if !bytes.Equal(fbufs[i], lbufs[i]) {
				t.Fatalf("block %d: seqlock and locked batch reads differ", ids[i])
			}
		}
	}
	compare("batch reads after ResetStats")
}

// TestSeqlockTortureDuringMigration reruns the atomicity check across a
// chip kill and a live band-by-band migration: FailChip's quiesce and
// the migration cursor are both standing-down gates, so the fast path
// must bow out rather than gather a failed chip's stale cells or a
// band's half-moved layout.
func TestSeqlockTortureDuringMigration(t *testing.T) {
	e := testEngine(t, 0, 0)
	populate(t, e)
	const failed = 1
	e.Quiesce(func() { e.rank.FailChip(failed) })
	m, err := e.BeginMigration(failed, 0)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 4
	stop := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*443 + 11))
			buf := make([]byte, e.BlockBytes())
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := int64(rng.Intn(int(e.Blocks())))
				if err := e.ReadBlockInto(b, buf); err != nil {
					errCh <- fmt.Errorf("reader %d block %d: %w", r, b, err)
					return
				}
				if err := checkVersioned(buf, b); err != nil {
					errCh <- fmt.Errorf("mid-migration %w", err)
					return
				}
			}
		}(r)
	}
	for m.Cursor() < e.Blocks() {
		if err := e.MigrateBand(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FinishMigration(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// The degraded latch is one-way: no read after FinishMigration may
	// take the fast path, whose addressing assumes the pristine layout.
	before := e.SeqStats().FastReads
	buf := make([]byte, e.BlockBytes())
	for b := int64(0); b < e.Blocks(); b += 7 {
		if err := e.ReadBlockInto(b, buf); err != nil {
			t.Fatalf("post-migration read %d: %v", b, err)
		}
		if err := checkVersioned(buf, b); err != nil {
			t.Fatal(err)
		}
	}
	if after := e.SeqStats().FastReads; after != before {
		t.Fatalf("fast path served %d reads after migration flipped the layout", after-before)
	}
}

// TestSeqlockDegradedEntryUnderReads flips EnterDegradedMode while
// readers run: the sticky degraded latch is published before any layout
// change, so no reader may return pre-flip bytes under the post-flip
// layout (or vice versa — any committed version, whole, is the bar).
func TestSeqlockDegradedEntryUnderReads(t *testing.T) {
	e := testEngine(t, 0, 0)
	populate(t, e)
	const readers = 4
	stop := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)*97 + 3))
			buf := make([]byte, e.BlockBytes())
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := int64(rng.Intn(int(e.Blocks())))
				if err := e.ReadBlockInto(b, buf); err != nil {
					errCh <- fmt.Errorf("reader %d block %d: %w", r, b, err)
					return
				}
				if err := checkVersioned(buf, b); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	e.Quiesce(func() { e.rank.FailChip(2) })
	if err := e.EnterDegradedMode(2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if deg, chip := e.Degraded(); !deg || chip != 2 {
		t.Fatalf("engine not degraded after EnterDegradedMode: %v %d", deg, chip)
	}
}

// TestSeqlockReaderFallbackBound pins the starvation bound: a reader
// arriving while a writer holds the shard never spins on the odd
// sequence — it counts a fallback and parks on the mutex, completing as
// soon as the writer leaves.
func TestSeqlockReaderFallbackBound(t *testing.T) {
	e := testEngine(t, 0, 0)
	populate(t, e)
	if !e.SeqlockEnabled() {
		t.Skip("seqlock path disabled in this build (race detector)")
	}
	const block = 3
	s := e.shards[e.shardOf(block)]
	base := e.SeqStats().LockFallbacks

	s.lockWrite()
	done := make(chan error, 1)
	buf := make([]byte, e.BlockBytes())
	go func() {
		done <- e.ReadBlockInto(block, buf)
	}()
	// The reader must observe the odd sequence, record the fallback, and
	// block on the mutex — all without completing.
	deadline := time.After(5 * time.Second)
	for e.SeqStats().LockFallbacks == base {
		select {
		case err := <-done:
			t.Fatalf("read completed (%v) while the writer section was held", err)
		case <-deadline:
			t.Fatal("reader never recorded a lock fallback")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("read completed (%v) while the writer section was held", err)
	case <-time.After(10 * time.Millisecond):
	}
	s.unlockWrite()
	if err := <-done; err != nil {
		t.Fatalf("parked read failed after writer left: %v", err)
	}
	if err := checkVersioned(buf, block); err != nil {
		t.Fatal(err)
	}
}

// TestDisableSeqlock pins the escape hatch: Config.DisableSeqlock routes
// every read through the mutex (SeqStats stays zero) with identical
// results — the knob the equivalence campaigns and any future bisect of
// a suspected seqlock bug depend on.
func TestDisableSeqlock(t *testing.T) {
	r, err := rank.New(rank.PaperConfig(4, 8, 1024, 7))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(r, Config{Core: core.DefaultConfig(), DisableSeqlock: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.SeqlockEnabled() {
		t.Fatal("DisableSeqlock engine reports the fast path enabled")
	}
	populate(t, e)
	buf := make([]byte, e.BlockBytes())
	want := make([]byte, e.BlockBytes())
	for b := int64(0); b < e.Blocks(); b += 5 {
		if err := e.ReadBlockInto(b, buf); err != nil {
			t.Fatal(err)
		}
		fillBlock(want, b, 0)
		if !bytes.Equal(buf, want) {
			t.Fatalf("block %d: wrong data with seqlock disabled", b)
		}
	}
	if ss := e.SeqStats(); ss != (SeqStats{}) {
		t.Fatalf("disabled seqlock path recorded outcomes: %+v", ss)
	}
}

// TestSeqlockServesCleanReads pins that on a quiet engine the fast path
// serves every clean read — the perf claim depends on the gates standing
// down only when they must.
func TestSeqlockServesCleanReads(t *testing.T) {
	e := testEngine(t, 0, 0)
	populate(t, e)
	if !e.SeqlockEnabled() {
		t.Skip("seqlock path disabled in this build (race detector)")
	}
	e.ResetStats()
	const n = 200
	buf := make([]byte, e.BlockBytes())
	for i := 0; i < n; i++ {
		if err := e.ReadBlockInto(int64(i)%e.Blocks(), buf); err != nil {
			t.Fatal(err)
		}
	}
	ss := e.SeqStats()
	if ss.FastReads != n {
		t.Fatalf("fast path served %d of %d quiet clean reads (%+v)", ss.FastReads, n, ss)
	}
	st := e.Stats()
	if st.Reads != n || st.ReadsClean != n || st.BlockFetches != n {
		t.Fatalf("fast reads folded into stats wrong: %+v", st)
	}
}
