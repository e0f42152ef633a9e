package nvram

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEURDeferredDrainMatchesImmediate is the differential pin for the
// raw-delta EUR: accumulating many XOR deltas and paying one EncodeDelta
// at row close must leave byte-identical cells and code bits to draining
// after every single write. BCH encoding is linear, so
// Encode(d1 ^ d2) == Encode(d1) ^ Encode(d2) — this test is what keeps
// that assumption honest if the encoder ever grows a nonlinear step.
func TestEURDeferredDrainMatchesImmediate(t *testing.T) {
	deferred := newTestChip(t)
	immediate := newTestChip(t)
	rng := rand.New(rand.NewSource(77))

	// Random-width deltas at random offsets, revisiting rows and VLEWs so
	// the accumulated registers see overlapping and disjoint ranges (the
	// lo/hi touched-range bookkeeping has to merge both).
	type w struct {
		bank, row, off int
		delta          []byte
	}
	var writes []w
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(64)
		wr := w{
			bank:  rng.Intn(testGeom.Banks),
			row:   rng.Intn(4), // few rows: force revisits and implicit closes
			off:   rng.Intn(testGeom.RowDataBytes - 64),
			delta: make([]byte, n),
		}
		rng.Read(wr.delta)
		writes = append(writes, wr)
	}
	for _, wr := range writes {
		deferred.WriteXOR(wr.bank, wr.row, wr.off, wr.delta)

		immediate.WriteXOR(wr.bank, wr.row, wr.off, wr.delta)
		immediate.CloseRow(wr.bank) // drain after every write
	}
	deferred.CloseAllRows()
	immediate.CloseAllRows()

	if !bytes.Equal(deferred.CellArray(), immediate.CellArray()) {
		t.Fatal("deferred and immediate EUR drains left different data cells")
	}
	dc, ic := make([]byte, testGeom.VLEWCodeBytes), make([]byte, testGeom.VLEWCodeBytes)
	for bank := 0; bank < testGeom.Banks; bank++ {
		for row := 0; row < 4; row++ {
			for v := 0; v < testGeom.VLEWsPerRow(); v++ {
				deferred.ReadCodeInto(dc, bank, row, v)
				immediate.ReadCodeInto(ic, bank, row, v)
				if !bytes.Equal(dc, ic) {
					t.Fatalf("bank %d row %d vlew %d: deferred code differs from immediate", bank, row, v)
				}
			}
		}
	}
	// The whole point of deferring: strictly fewer code writes for the
	// same final state.
	if d, i := deferred.Stats().VLEWCodeWrites, immediate.Stats().VLEWCodeWrites; d >= i {
		t.Fatalf("deferred drain did not coalesce: %d code writes vs %d immediate", d, i)
	}
}

// TestWriteVLEWPreservesOpenRowEUR pins the EUR addressing contract that
// the fleet's chip-repair campaigns flushed out: an EUR slot is addressed
// by (bank, vlew) and belongs to the bank's OPEN row, so a wholesale
// VLEW overwrite of a CLOSED row (patrol scrub fixing a cold word while
// demand traffic holds another row open) must leave the open row's
// pending code update armed. Discarding it leaves the open row's VLEW
// with stale code bits — BCH-uncorrectable at best, silently
// miscorrected at worst.
func TestWriteVLEWPreservesOpenRowEUR(t *testing.T) {
	c := newTestChip(t)
	code := testEncoder(t)
	rng := rand.New(rand.NewSource(9))

	// Demand write: open row 1, arming an EUR delta for (bank 0, vlew 2).
	delta := make([]byte, 64)
	rng.Read(delta)
	c.WriteXOR(0, 1, 2*testGeom.VLEWDataBytes, delta)

	// Patrol-style write-back to the SAME (bank, vlew) of a DIFFERENT,
	// closed row: read the word, write it straight back.
	data, vcode := readVLEW(c, 0, 5, 2)
	c.WriteVLEW(0, 5, 2, data, vcode)

	// Closing the open row must still drain the pending update, leaving
	// row 1's VLEW 2 internally consistent.
	c.CloseRow(0)
	data, vcode = readVLEW(c, 0, 1, 2)
	if fixed, err := code.Decode(data, vcode[:code.ParityBytes()]); err != nil || fixed != 0 {
		t.Fatalf("open row's VLEW inconsistent after closed-row write-back: fixed=%d err=%v", fixed, err)
	}

	// And overwriting the OPEN row's word wholesale must still discard
	// the slot: arm another delta, overwrite, close — the stale delta
	// must not be drained on top of the fresh contents.
	rng.Read(delta)
	c.WriteXOR(0, 3, 2*testGeom.VLEWDataBytes, delta)
	fresh := make([]byte, testGeom.VLEWDataBytes)
	rng.Read(fresh)
	fcode := make([]byte, testGeom.VLEWCodeBytes)
	copy(fcode, code.Encode(fresh))
	c.WriteVLEW(0, 3, 2, fresh, fcode)
	c.CloseRow(0)
	data, vcode = readVLEW(c, 0, 3, 2)
	if fixed, err := code.Decode(data, vcode[:code.ParityBytes()]); err != nil || fixed != 0 {
		t.Fatalf("stale EUR drained over wholesale overwrite: fixed=%d err=%v", fixed, err)
	}
}
