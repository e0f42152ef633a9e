package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"chipkillpm/internal/rank"
)

// smallRank builds a small but paper-shaped rank: 2 banks x 8 rows x 1KB
// rows = 2048 blocks.
func smallRank(t testing.TB, seed int64) *rank.Rank {
	t.Helper()
	r, err := rank.New(rank.PaperConfig(2, 8, 1024, seed))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newTestController(t testing.TB, seed int64, omv OMVProvider) *Controller {
	t.Helper()
	c, err := NewController(smallRank(t, seed), DefaultConfig(), omv)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// readBlock reads a block through ReadBlockInto into a fresh buffer, for
// tests that keep the result past the next read.
func readBlock(c *Controller, b int64) ([]byte, error) {
	dst := make([]byte, c.Rank().Config().BlockBytes())
	if err := c.ReadBlockInto(b, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// fillRandom populates every block with deterministic random data and
// returns the reference copy.
func fillRandom(t testing.TB, c *Controller, seed int64) map[int64][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := make(map[int64][]byte)
	for b := int64(0); b < c.Rank().Blocks(); b++ {
		data := make([]byte, 64)
		rng.Read(data)
		if err := c.WriteBlockInitial(b, data); err != nil {
			t.Fatal(err)
		}
		ref[b] = data
	}
	return ref
}

func TestNewControllerValidation(t *testing.T) {
	r := smallRank(t, 1)
	if _, err := NewController(r, Config{Threshold: -1}, nil); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := NewController(r, Config{Threshold: 5}, nil); err == nil {
		t.Error("threshold beyond RS capability accepted")
	}
}

func TestCleanReadWrite(t *testing.T) {
	c := newTestController(t, 1, nil)
	ref := fillRandom(t, c, 2)
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: data mismatch", b)
		}
	}
	st := c.Stats()
	if st.ReadsClean != st.Reads || st.ReadsVLEWFallback != 0 {
		t.Errorf("unexpected read outcomes: %+v", st)
	}
}

func TestWritePathUpdatesDataAndChecks(t *testing.T) {
	// Writes go through the XOR path; subsequent reads must verify clean
	// against both the RS check bytes and the chips' VLEW code bits.
	c := newTestController(t, 3, nil)
	fillRandom(t, c, 4)
	rng := rand.New(rand.NewSource(5))
	written := map[int64][]byte{}
	for i := 0; i < 300; i++ {
		b := rng.Int63n(c.Rank().Blocks())
		data := make([]byte, 64)
		rng.Read(data)
		if err := c.WriteBlock(b, data); err != nil {
			t.Fatal(err)
		}
		written[b] = data
	}
	for b, want := range written {
		got, err := readBlock(c, b)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d: got err=%v", b, err)
		}
	}
	// VLEW code bits must be consistent after closing rows.
	c.Rank().CloseAllRows()
	rep := c.BootScrub()
	if rep.BitsCorrected != 0 || len(rep.ChipsFailed) != 0 {
		t.Errorf("scrub found inconsistencies after writes: %v", rep)
	}
}

func TestRuntimeOpportunisticCorrection(t *testing.T) {
	// Inject a low RBER; most erroneous reads should be corrected by RS
	// within the threshold, without VLEW fallback.
	c := newTestController(t, 6, nil)
	ref := fillRandom(t, c, 7)
	c.ResetStats()
	c.Rank().InjectRetentionErrors(2e-4)
	bad := 0
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			bad++
		}
	}
	if bad != 0 {
		t.Errorf("%d blocks returned wrong data", bad)
	}
	st := c.Stats()
	if st.ReadsRSCorrected == 0 {
		t.Error("expected some opportunistic RS corrections at 2e-4")
	}
	t.Logf("reads=%d clean=%d rs=%d fallback=%d", st.Reads, st.ReadsClean, st.ReadsRSCorrected, st.ReadsVLEWFallback)
}

func TestVLEWFallbackOnDenseErrors(t *testing.T) {
	// At a high RBER some blocks carry >2 bad bytes; the threshold
	// rejects the opportunistic RS correction for them and the VLEW path
	// must recover the data bit-exactly.
	c := newTestController(t, 10, nil)
	ref := fillRandom(t, c, 11)
	c.ResetStats()
	c.Rank().InjectRetentionErrors(2e-3)
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: VLEW fallback returned wrong data", b)
		}
	}
	if c.Stats().ReadsVLEWFallback == 0 {
		t.Error("expected VLEW fallbacks at RBER 2e-3")
	}
	t.Logf("fallbacks: %d / %d reads", c.Stats().ReadsVLEWFallback, c.Stats().Reads)
}

func TestBootScrubCorrectsOutageErrors(t *testing.T) {
	// Simulate a long outage at RBER 1e-3 and verify scrub restores every
	// block bit-exactly.
	c := newTestController(t, 12, nil)
	ref := fillRandom(t, c, 13)
	flips := c.Rank().InjectRetentionErrors(1e-3)
	if flips == 0 {
		t.Fatal("no errors injected")
	}
	rep := c.BootScrub()
	if rep.Unrecoverable || len(rep.ChipsFailed) != 0 {
		t.Fatalf("scrub failed: %v", rep)
	}
	if rep.BitsCorrected == 0 {
		t.Fatal("scrub corrected nothing")
	}
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d wrong after scrub: err=%v", b, err)
		}
	}
	st := c.Stats()
	if st.ReadsClean != st.Reads {
		t.Errorf("post-scrub reads not all clean: %+v", st)
	}
	t.Logf("%s", rep)
}

func TestBootScrubRecoversFailedDataChip(t *testing.T) {
	// Chipkill: fail one data chip during an outage; scrub must detect it
	// via uncorrectable VLEWs and rebuild it through RS erasure.
	c := newTestController(t, 14, nil)
	ref := fillRandom(t, c, 15)
	c.Rank().FailChip(3)
	c.Rank().InjectRetentionErrors(1e-3)
	rep := c.BootScrub()
	if rep.Unrecoverable {
		t.Fatalf("scrub unrecoverable: %v", rep)
	}
	if len(rep.ChipsFailed) != 1 || rep.ChipsFailed[0] != 3 {
		t.Fatalf("failed chips = %v, want [3]", rep.ChipsFailed)
	}
	if rep.BlocksRebuilt != c.Rank().Blocks() {
		t.Fatalf("rebuilt %d blocks, want %d", rep.BlocksRebuilt, c.Rank().Blocks())
	}
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d wrong after chip rebuild: err=%v", b, err)
		}
	}
}

func TestBootScrubRecoversFailedParityChip(t *testing.T) {
	c := newTestController(t, 16, nil)
	ref := fillRandom(t, c, 17)
	c.Rank().FailChip(c.Rank().ParityChipIndex())
	c.Rank().InjectRetentionErrors(5e-4)
	rep := c.BootScrub()
	if rep.Unrecoverable || len(rep.ChipsRebuilt) != 1 {
		t.Fatalf("scrub: %v", rep)
	}
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d wrong after parity rebuild: err=%v", b, err)
		}
	}
	// Check bytes must have been recomputed: a later runtime single-byte
	// corruption must be RS-correctable again.
	st := c.Stats()
	if st.ReadsClean != st.Reads {
		t.Error("reads not clean after parity rebuild")
	}
}

func TestTwoChipFailuresAreUnrecoverable(t *testing.T) {
	c := newTestController(t, 18, nil)
	fillRandom(t, c, 19)
	c.Rank().FailChip(1)
	c.Rank().FailChip(5)
	rep := c.BootScrub()
	if !rep.Unrecoverable {
		t.Fatal("two chip failures must be unrecoverable")
	}
}

func TestRuntimeChipFailureCorrectedViaFallback(t *testing.T) {
	// A chip fails at runtime: every read of its blocks sees 8 bad bytes,
	// exceeding the RS threshold; the VLEW fallback detects the failed
	// chip (uncorrectable VLEW) and erasure-corrects the block.
	c := newTestController(t, 20, nil)
	ref := fillRandom(t, c, 21)
	c.ResetStats()
	c.Rank().FailChip(6)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 100; i++ {
		b := rng.Int63n(c.Rank().Blocks())
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if !bytes.Equal(got, ref[b]) {
			t.Fatalf("block %d: wrong data under runtime chip failure", b)
		}
	}
	st := c.Stats()
	if st.ChipFailuresCorrected == 0 || st.ReadsVLEWFallback == 0 {
		t.Errorf("expected chip-failure corrections: %+v", st)
	}
}

func TestRuntimeParityChipFailureStillReadable(t *testing.T) {
	c := newTestController(t, 23, nil)
	ref := fillRandom(t, c, 24)
	c.ResetStats()
	c.Rank().FailChip(c.Rank().ParityChipIndex())
	for b := int64(0); b < 50; b++ {
		got, err := readBlock(c, b)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if !bytes.Equal(got, ref[b]) {
			t.Fatalf("block %d: wrong data", b)
		}
	}
}

// trackingOMV is a test OMVProvider backed by a map.
type trackingOMV struct {
	values map[int64][]byte
	asked  int
}

func (p *trackingOMV) OMV(b int64) ([]byte, bool) {
	p.asked++
	v, ok := p.values[b]
	return v, ok
}

func TestOMVProviderAvoidsMemoryFetch(t *testing.T) {
	prov := &trackingOMV{values: map[int64][]byte{}}
	c := newTestController(t, 25, prov)
	ref := fillRandom(t, c, 26)
	c.ResetStats()
	// Provider knows block 7's old value; write should hit.
	prov.values[7] = ref[7]
	newData := make([]byte, 64)
	rand.New(rand.NewSource(27)).Read(newData)
	if err := c.WriteBlock(7, newData); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.OMVHits != 1 || st.OMVMisses != 0 || st.BlockFetches != 0 {
		t.Errorf("hit path stats: %+v", st)
	}
	// Unknown block: must fetch from memory (one extra block fetch).
	if err := c.WriteBlock(8, newData); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.OMVMisses != 1 || st.BlockFetches != 1 {
		t.Errorf("miss path stats: %+v", st)
	}
	// Both writes must have landed correctly.
	for _, b := range []int64{7, 8} {
		got, err := readBlock(c, b)
		if err != nil || !bytes.Equal(got, newData) {
			t.Fatalf("block %d incorrect after OMV write: err=%v", b, err)
		}
	}
}

func TestStaleOMVKeepsCodesConsistentButCorruptsData(t *testing.T) {
	// If the OMV provider lies (stale value), the chip still stores
	// delta XOR stored-old, so data is wrong but VLEW/RS codes remain
	// consistent relative to the stored bits — no uncorrectable error,
	// but wrong data. This documents why OMV integrity matters.
	prov := &trackingOMV{values: map[int64][]byte{}}
	c := newTestController(t, 28, prov)
	ref := fillRandom(t, c, 29)
	stale := append([]byte(nil), ref[3]...)
	stale[0] ^= 0xFF
	prov.values[3] = stale
	newData := make([]byte, 64)
	if err := c.WriteBlock(3, newData); err != nil {
		t.Fatal(err)
	}
	got, err := readBlock(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, newData) {
		t.Fatal("stale OMV unexpectedly produced correct data")
	}
	if got[0] != newData[0]^0xFF {
		t.Error("corruption pattern should mirror the stale byte")
	}
}

func TestDisabledBlock(t *testing.T) {
	c := newTestController(t, 30, nil)
	fillRandom(t, c, 31)
	c.DisableBlock(40)
	if !c.BlockDisabled(40) {
		t.Fatal("block not disabled")
	}
	if _, err := readBlock(c, 40); !errors.Is(err, ErrBlockDisabled) {
		t.Errorf("read of disabled block: %v", err)
	}
	if err := c.WriteBlock(40, make([]byte, 64)); !errors.Is(err, ErrBlockDisabled) {
		t.Errorf("write of disabled block: %v", err)
	}
	// Neighbouring blocks in the same VLEW must remain fully readable
	// and scrubbable (the VLEW treats the disabled block as zeros).
	c.Rank().CloseAllRows()
	rep := c.BootScrub()
	if rep.BitsCorrected != 0 || len(rep.ChipsFailed) != 0 {
		t.Errorf("scrub after disable: %v", rep)
	}
}

func TestWriteBlockSizeValidation(t *testing.T) {
	c := newTestController(t, 32, nil)
	if err := c.WriteBlock(0, make([]byte, 10)); err == nil {
		t.Error("short write accepted")
	}
	if err := c.WriteBlockInitial(0, make([]byte, 10)); err == nil {
		t.Error("short initial write accepted")
	}
}

func TestWriteBackVLEWCorrectionsScrubs(t *testing.T) {
	r := smallRank(t, 33)
	c, err := NewController(r, Config{Threshold: 2, WriteBackVLEWCorrections: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillRandom(t, c, 34)
	c.Rank().InjectRetentionErrors(3e-3)
	// Read everything once: fallback corrections are written back.
	for b := int64(0); b < c.Rank().Blocks(); b++ {
		if _, err := readBlock(c, b); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
	}
	first := c.Stats().ReadsVLEWFallback
	if first == 0 {
		t.Skip("no fallbacks triggered; raise RBER")
	}
	// Second pass: previously written-back blocks should not fall back
	// again (their dense errors were scrubbed).
	c.ResetStats()
	for b := int64(0); b < c.Rank().Blocks(); b++ {
		got, err := readBlock(c, b)
		if err != nil || !bytes.Equal(got, ref[b]) {
			t.Fatalf("block %d: err=%v", b, err)
		}
	}
	if again := c.Stats().ReadsVLEWFallback; again != 0 {
		t.Errorf("%d fallbacks after write-back scrubbing, want 0", again)
	}
}

func TestControllerStorageOverheadMatchesPaper(t *testing.T) {
	c := newTestController(t, 35, nil)
	got := c.Rank().StorageOverhead()
	if got < 0.269 || got > 0.271 {
		t.Errorf("storage overhead %.4f, want 27%%", got)
	}
}

func TestWriteLatencyInflation(t *testing.T) {
	if f := WriteLatencyInflation(0); f != 1 {
		t.Errorf("C=0: factor=%f", f)
	}
	// C=0.2 -> 1 + 4.125*0.2 = 1.825.
	if f := WriteLatencyInflation(0.2); f < 1.82 || f > 1.83 {
		t.Errorf("C=0.2: factor=%f", f)
	}
}

func TestPatrolScrubCorrectsIncrementally(t *testing.T) {
	c := newTestController(t, 90, nil)
	ref := fillRandom(t, c, 91)
	c.Rank().InjectRetentionErrors(5e-4)
	// Patrol through the whole memory in small steps.
	total := c.TotalPatrolUnits()
	pos := int64(0)
	var corrected int64
	for scanned := int64(0); scanned < total; scanned += 16 {
		var n int64
		pos, n = c.PatrolScrub(pos, 16)
		corrected += n
	}
	if corrected == 0 {
		t.Fatal("patrol scrub corrected nothing")
	}
	if pos != 0 {
		t.Errorf("patrol did not wrap to 0: %d", pos)
	}
	// Everything must now read clean without RS corrections.
	c.ResetStats()
	for b, want := range ref {
		got, err := readBlock(c, b)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d: err=%v", b, err)
		}
	}
	if st := c.Stats(); st.ReadsClean != st.Reads {
		t.Errorf("reads not clean after patrol: %+v", st)
	}
}

func TestPatrolScrubSkipsFailedChip(t *testing.T) {
	c := newTestController(t, 92, nil)
	fillRandom(t, c, 93)
	c.Rank().FailChip(4)
	total := c.TotalPatrolUnits()
	c.PatrolScrub(0, int(total))
	// No panic, and the failed chip contributed no scrubbed VLEWs beyond
	// the healthy ones.
	healthyUnits := total * int64(c.Rank().NumChips()-1) / int64(c.Rank().NumChips())
	if got := c.Stats().ScrubbedVLEWs; got != healthyUnits {
		t.Errorf("scrubbed %d units, want %d", got, healthyUnits)
	}
}
