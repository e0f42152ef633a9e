package nvram

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chipkillpm/internal/bch"
	"chipkillpm/internal/gf"
)

// The reference below is the per-chip write path as it stood before the
// chip split an access into Resolve and a kernel: every call re-checks
// and re-derives its address, divides by RowTotalBytes and VLEWDataBytes,
// and opens the row through the checked OpenRow. It works on the same
// Chip fields, so a reference chip and a kernel chip driven by the same
// op sequence must end in the same state.

func refRowBase(c *Chip, bank, row int) int {
	c.checkAddr(bank, row)
	return (bank*c.geom.RowsPerBank + row) * c.geom.RowTotalBytes()
}

func refVLEWCode(c *Chip, bank, row, v int) []byte {
	start := refRowBase(c, bank, row) + c.geom.RowDataBytes + v*c.geom.VLEWCodeBytes
	return c.cells[start : start+c.geom.VLEWCodeBytes]
}

func refDrainSlot(c *Chip, bank, row, v int) {
	b := &c.banks[bank]
	s := &b.slots[v]
	reg := b.eur[v*c.geom.VLEWDataBytes:]
	if !c.failed {
		c.enc.EncodeDeltaInto(b.parity, reg[s.lo:s.hi], int(s.lo)*8)
		gf.XORBytes(refVLEWCode(c, bank, row, v), b.parity)
	}
	b.codeWrites++
	zeroBytes(reg[s.lo:s.hi])
	*s = eurSlot{}
}

func refCloseRow(c *Chip, bank int) {
	b := &c.banks[bank]
	row := b.openRow
	if row < 0 {
		return
	}
	for v := range b.slots {
		if b.slots[v].hi != 0 {
			refDrainSlot(c, bank, row, v)
		}
	}
	b.openRow = -1
	b.closes++
}

func refOpenRow(c *Chip, bank, row int) {
	c.checkAddr(bank, row)
	b := &c.banks[bank]
	if b.openRow == row {
		return
	}
	if b.openRow >= 0 {
		refCloseRow(c, bank)
	}
	b.openRow = row
	b.activations++
}

func refApplyCodeDelta(c *Chip, bank, row, off int, delta []byte, coalesce bool) {
	b := &c.banks[bank]
	for len(delta) > 0 {
		v := off / c.geom.VLEWDataBytes
		inOff := off % c.geom.VLEWDataBytes
		n := c.geom.VLEWDataBytes - inOff
		if n > len(delta) {
			n = len(delta)
		}
		if coalesce {
			reg := b.eur[v*c.geom.VLEWDataBytes:]
			gf.XORBytes(reg[inOff:inOff+n], delta[:n])
			s := &b.slots[v]
			if s.hi == 0 {
				s.lo, s.hi = int32(inOff), int32(inOff+n)
			} else {
				s.lo = min(s.lo, int32(inOff))
				s.hi = max(s.hi, int32(inOff+n))
			}
		} else {
			c.enc.EncodeDeltaInto(b.parity, delta[:n], inOff*8)
			gf.XORBytes(refVLEWCode(c, bank, row, v), b.parity)
			b.codeWrites++
		}
		delta = delta[n:]
		off += n
	}
}

func refWriteXOR(c *Chip, bank, row, off int, delta []byte) {
	base := refRowBase(c, bank, row)
	if off < 0 || off+len(delta) > c.geom.RowDataBytes {
		panic(fmt.Sprintf("nvram: XOR write [%d,%d) outside row data %d", off, off+len(delta), c.geom.RowDataBytes))
	}
	refOpenRow(c, bank, row)
	b := &c.banks[bank]
	b.dataWrites++
	if c.failed {
		return
	}
	gf.XORBytes(c.cells[base+off:base+off+len(delta)], delta)
	c.applyStuck(base+off, len(delta))
	b.bitsWritten += int64(8 * len(delta))
	c.rowWear[bank*c.geom.RowsPerBank+row]++
	if c.enc != nil {
		refApplyCodeDelta(c, bank, row, off, delta, true)
	}
}

func refWriteData(c *Chip, bank, row, off int, data []byte) {
	base := refRowBase(c, bank, row)
	if off < 0 || off+len(data) > c.geom.RowDataBytes {
		panic(fmt.Sprintf("nvram: data write [%d,%d) outside row data %d", off, off+len(data), c.geom.RowDataBytes))
	}
	b := &c.banks[bank]
	b.rawWrites++
	if c.failed {
		return
	}
	old := c.cells[base+off : base+off+len(data)]
	if c.enc != nil {
		delta := b.delta[:len(data)]
		for i := range data {
			delta[i] = old[i] ^ data[i]
		}
		refApplyCodeDelta(c, bank, row, off, delta, false)
	}
	copy(old, data)
	c.applyStuck(base+off, len(data))
	b.bitsWritten += int64(8 * len(data))
	c.rowWear[bank*c.geom.RowsPerBank+row]++
}

func refWriteDataRaw(c *Chip, bank, row, off int, data []byte) {
	base := refRowBase(c, bank, row)
	if off < 0 || off+len(data) > c.geom.RowDataBytes {
		panic(fmt.Sprintf("nvram: raw write [%d,%d) outside row data %d", off, off+len(data), c.geom.RowDataBytes))
	}
	b := &c.banks[bank]
	b.rawWrites++
	if c.failed {
		return
	}
	copy(c.cells[base+off:], data)
	c.applyStuck(base+off, len(data))
	b.bitsWritten += int64(8 * len(data))
	c.rowWear[bank*c.geom.RowsPerBank+row]++
}

// sameChipState compares everything a write can change: cells (data and
// code), the EUR registers and slots and open row of every bank, row
// wear and the folded Stats.
func sameChipState(t *testing.T, step int, what string, got, want *Chip) {
	t.Helper()
	if !bytes.Equal(got.CellArray(), want.CellArray()) {
		t.Fatalf("step %d (%s): cell arrays differ", step, what)
	}
	for i := range got.banks {
		g, w := &got.banks[i], &want.banks[i]
		if g.openRow != w.openRow || !bytes.Equal(g.eur, w.eur) || !reflect.DeepEqual(g.slots, w.slots) {
			t.Fatalf("step %d (%s): bank %d EUR state differs: open row %d vs %d, slots %v vs %v",
				step, what, i, g.openRow, w.openRow, g.slots, w.slots)
		}
	}
	if !reflect.DeepEqual(got.rowWear, want.rowWear) {
		t.Fatalf("step %d (%s): row wear differs", step, what)
	}
	if gs, ws := got.Stats(), want.Stats(); gs != ws {
		t.Fatalf("step %d (%s): stats differ:\n got %+v\nwant %+v", step, what, gs, ws)
	}
}

// TestKernelsMatchReference drives random op sequences through the
// resolve-then-kernel chip and through the reference per-chip path, on the
// paper's VLEW geometry and on one whose bank, row and row-size counts are
// not powers of two: row hits and misses, 8-byte slices and writes that
// straddle two VLEWs, raw writes with and without code maintenance,
// VLEW reads that drain a register mid-row, VLEW write-backs to the open
// row and to a closed one, a stuck cell and a failed stretch. After every
// op the two chips' cells, EUR registers, slots, row wear and Stats must
// be equal.
func TestKernelsMatchReference(t *testing.T) {
	code := bch.Must(12, 2048, 22)
	for _, geom := range []Geometry{
		{Banks: 4, RowsPerBank: 8, RowDataBytes: 1024, VLEWDataBytes: 256, VLEWCodeBytes: 33},
		{Banks: 3, RowsPerBank: 5, RowDataBytes: 768, VLEWDataBytes: 256, VLEWCodeBytes: 33},
	} {
		t.Run(fmt.Sprintf("%dx%dx%dB", geom.Banks, geom.RowsPerBank, geom.RowDataBytes), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				kernelVsReference(t, geom, code, seed)
			}
		})
	}
}

func kernelVsReference(t *testing.T, geom Geometry, code *bch.Code, seed int64) {
	got, err := NewChip(geom, code, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewChip(geom, code, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	vdb, vpr := geom.VLEWDataBytes, geom.VLEWsPerRow()
	// Three rows per bank keep row hits common and misses frequent.
	row := func() int { return rng.Intn(3) }
	// span picks an access: mostly an aligned 8-byte slice, sometimes one
	// that straddles a VLEW boundary, sometimes any length anywhere.
	span := func() (off, n int) {
		switch rng.Intn(8) {
		case 0:
			v := 1 + rng.Intn(vpr-1)
			return v*vdb - 1 - rng.Intn(7), 8
		case 1:
			n = 1 + rng.Intn(2*vdb)
			return rng.Intn(geom.RowDataBytes - n + 1), n
		default:
			return 8 * rng.Intn(geom.RowDataBytes/8), 8
		}
	}
	buf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for i := 0; i < 4; i++ {
		bank, r, off := rng.Intn(geom.Banks), row(), rng.Intn(geom.RowDataBytes)
		bit := uint(rng.Intn(8))
		got.WearOutBit(bank, r, off, bit)
		want.WearOutBit(bank, r, off, bit)
	}
	const steps = 3000
	for step := 0; step < steps; step++ {
		// The chip is failed over one stretch of the sequence. Clearing
		// the flag directly, unlike Repair, keeps the cells, so the
		// writes the failed chip dropped stay visible in the comparison.
		if step == steps/2 || step == 2*steps/3 {
			fail := step == steps/2
			got.failed, want.failed = fail, fail
		}
		bank, r := rng.Intn(geom.Banks), row()
		var what string
		switch op := rng.Intn(20); {
		case op < 12:
			off, n := span()
			d := buf(n)
			what = fmt.Sprintf("WriteXOR bank %d row %d [%d,+%d)", bank, r, off, n)
			got.WriteXOR(bank, r, off, d)
			refWriteXOR(want, bank, r, off, d)
		case op < 14:
			off, n := span()
			d := buf(n)
			what = fmt.Sprintf("WriteData bank %d row %d [%d,+%d)", bank, r, off, n)
			got.WriteData(bank, r, off, d)
			refWriteData(want, bank, r, off, d)
		case op < 15:
			off, n := span()
			d := buf(n)
			what = fmt.Sprintf("WriteDataRaw bank %d row %d [%d,+%d)", bank, r, off, n)
			got.WriteDataRaw(bank, r, off, d)
			refWriteDataRaw(want, bank, r, off, d)
		case op < 17:
			// A VLEW read drains its slot if the row is open: mid-row,
			// while later writes keep coalescing into the other slots.
			v := rng.Intn(vpr)
			what = fmt.Sprintf("ReadVLEWInto bank %d row %d vlew %d", bank, r, v)
			gd, gc := readVLEW(got, bank, r, v)
			wd, wc := readVLEW(want, bank, r, v)
			if !bytes.Equal(gd, wd) || !bytes.Equal(gc, wc) {
				t.Fatalf("seed %d step %d (%s): VLEW contents differ", seed, step, what)
			}
		case op < 18:
			// Write-back to the open row or to a closed one.
			if open := got.banks[bank].openRow; open >= 0 && rng.Intn(2) == 0 {
				r = open
			}
			v := rng.Intn(vpr)
			d, c := buf(vdb), buf(geom.VLEWCodeBytes)
			what = fmt.Sprintf("WriteVLEW bank %d row %d vlew %d", bank, r, v)
			got.WriteVLEW(bank, r, v, d, c)
			want.WriteVLEW(bank, r, v, d, c)
		case op < 19:
			vs := rng.Perm(vpr)[:1+rng.Intn(vpr)]
			datas, codes := make([][]byte, len(vs)), make([][]byte, len(vs))
			for i := range vs {
				datas[i], codes[i] = buf(vdb), buf(geom.VLEWCodeBytes)
			}
			what = fmt.Sprintf("WriteVLEWRow bank %d row %d vlews %v", bank, r, vs)
			got.WriteVLEWRow(bank, r, vs, datas, codes)
			want.WriteVLEWRow(bank, r, vs, datas, codes)
		default:
			off, n := span()
			what = fmt.Sprintf("ReadDataInto bank %d row %d [%d,+%d)", bank, r, off, n)
			if g, w := readData(got, bank, r, off, n), readData(want, bank, r, off, n); !bytes.Equal(g, w) {
				t.Fatalf("seed %d step %d (%s): read data differs", seed, step, what)
			}
		}
		sameChipState(t, step, what, got, want)
	}
	got.CloseAllRows()
	for bank := 0; bank < geom.Banks; bank++ {
		refCloseRow(want, bank)
	}
	sameChipState(t, steps, "close all rows", got, want)
}
