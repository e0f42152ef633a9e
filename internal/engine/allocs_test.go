//go:build !race

package engine

import (
	"testing"

	"chipkillpm/internal/core"
	"chipkillpm/internal/rank"
)

// The zero-allocation pins. Not built under -race: race instrumentation
// allocates and makes sync.Pool drop items, and race builds compile the
// lock-free read path out.

// TestReadAllocsZero pins the acceptance criterion: the steady-state
// clean-read path performs zero allocations per operation, for both the
// single-op and the batched entry points, and so does a read the
// lock-free path corrects. The locked fallback runs
// core.Controller.ReadBlockInto, which core's own alloc pin covers.
func TestReadAllocsZero(t *testing.T) {
	e := testEngine(t, 0)
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

	// Drifted variant: at the paper's runtime RBER about one read in nine
	// needs a one-symbol fix, which the lock-free path applies in place.
	// A first pass finds the blocks it corrects; wider patterns take the
	// locked decoder, whose corrected read TestWriteAllocsZero pins.
	drift := testEngine(t, 0)
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
	// OMV-miss variant: the default NoOMV provider makes every write fetch
	// its old value from memory first.
	e := testEngine(t, 0)
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
	e2, err := New(r2, Config{Core: core.DefaultConfig(), OMV: sh})
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
