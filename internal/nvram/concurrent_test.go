package nvram

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"chipkillpm/internal/bch"
)

// TestConcurrentBankDrains races the bank-disjointness contract directly
// rather than through the engine: one goroutine per bank issues row-miss
// WriteXORs to every chip of a shared rank-sized set, reads each write
// back and every seventh time reads its VLEW whole, so EUR drains run
// concurrently on the same chips from different banks. The chips share a
// fresh bch.Code, so the first drains also race the one-time delta-table
// build. The last chip is failed, and a poller reads its FailedAccesses
// while the banks' reads of it count up. Once the goroutines join, every
// chip's cells and every Stats field must equal those of a twin set that
// took the same operations serially. Run under -race by `make race`.
func TestConcurrentBankDrains(t *testing.T) {
	const chips, writesPerBank = 9, 150
	geom := Geometry{Banks: 4, RowsPerBank: 4, RowDataBytes: 1024, VLEWDataBytes: 256, VLEWCodeBytes: 33}
	type write struct {
		row, off int
		deltas   [chips][]byte
	}
	// Every write lands in another row than the bank's previous one, so each
	// closes a row and drains its EUR slot. Most carry the 8-byte demand
	// shape (the nibble-row encode); every fifth spans most of a VLEW (the
	// LFSR encode with a zero-feed).
	rng := rand.New(rand.NewSource(20))
	plan := make([][]write, geom.Banks)
	for b := range plan {
		row := 0
		for k := 0; k < writesPerBank; k++ {
			n, off := 8, 8*rng.Intn(geom.RowDataBytes/8)
			if k%5 == 4 {
				n = 64 + rng.Intn(geom.VLEWDataBytes-64)
				off = geom.VLEWDataBytes*rng.Intn(geom.VLEWsPerRow()) + rng.Intn(geom.VLEWDataBytes-n+1)
			}
			row = (row + 1 + rng.Intn(geom.RowsPerBank-1)) % geom.RowsPerBank
			w := write{row: row, off: off}
			for c := range w.deltas {
				w.deltas[c] = make([]byte, n)
				rng.Read(w.deltas[c])
			}
			plan[b] = append(plan[b], w)
		}
	}
	newSet := func() []*Chip {
		code := bch.Must(12, 2048, 22) // fresh: no tables built yet
		set := make([]*Chip, chips)
		for c := range set {
			var err error
			if set[c], err = NewChip(geom, code, int64(c)); err != nil {
				t.Fatal(err)
			}
		}
		set[chips-1].Fail()
		return set
	}
	apply := func(set []*Chip, bank int) {
		buf := make([]byte, geom.RowDataBytes)
		data, vcode := make([]byte, geom.VLEWDataBytes), make([]byte, geom.VLEWCodeBytes)
		for k, w := range plan[bank] {
			for c, chip := range set {
				chip.WriteXOR(bank, w.row, w.off, w.deltas[c])
				chip.ReadDataInto(buf[:len(w.deltas[c])], bank, w.row, w.off)
				if k%7 == 0 {
					chip.ReadVLEWInto(data, vcode, bank, w.row, w.off/geom.VLEWDataBytes)
				}
			}
		}
	}

	concurrent, serial := newSet(), newSet()
	failed := concurrent[chips-1]
	start, done := make(chan struct{}), make(chan struct{})
	polled := make(chan int64)
	go func() {
		<-start
		var last int64
		for {
			n := failed.FailedAccesses()
			if n < last {
				t.Errorf("FailedAccesses went back from %d to %d", last, n)
			}
			last = n
			select {
			case <-done:
				polled <- last
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for b := 0; b < geom.Banks; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			<-start
			apply(concurrent, b)
		}(b)
	}
	close(start)
	wg.Wait()
	close(done)
	if last := <-polled; last > failed.FailedAccesses() {
		t.Fatalf("poller saw %d failed accesses, more than the %d after the join", last, failed.FailedAccesses())
	}
	for b := 0; b < geom.Banks; b++ {
		apply(serial, b)
	}
	if failed.FailedAccesses() == 0 {
		t.Fatal("no read reached the failed chip")
	}

	for c := range concurrent {
		concurrent[c].CloseAllRows()
		serial[c].CloseAllRows()
		if !bytes.Equal(concurrent[c].CellArray(), serial[c].CellArray()) {
			t.Fatalf("chip %d: concurrent bank drains left different cells from the serial twin", c)
		}
		if got, want := concurrent[c].Stats(), serial[c].Stats(); got != want {
			t.Fatalf("chip %d: concurrent counters %+v, serial %+v", c, got, want)
		}
	}
}

// TestBankCountersFold drives every bank of one chip concurrently through
// XOR writes to one row, a draining ReadVLEWInto of that open row, a
// non-draining one of a closed row and a WriteVLEWRow over the open row
// (which discards, not drains, the slots it overwrites), then closes all
// rows. Banks do different amounts of each, and every counter of the folded
// Stats must equal the per-operation expectation summed over the banks.
func TestBankCountersFold(t *testing.T) {
	geom := Geometry{Banks: 4, RowsPerBank: 4, RowDataBytes: 1024, VLEWDataBytes: 256, VLEWCodeBytes: 33}
	code := bch.Must(12, 2048, 22)
	chip, err := NewChip(geom, code, 1)
	if err != nil {
		t.Fatal(err)
	}
	vpr := geom.VLEWsPerRow()
	const row = 1
	var want Stats
	armed := make([]map[int]bool, geom.Banks) // the model of each bank's EUR
	ops := make([]func(), geom.Banks)
	rng := rand.New(rand.NewSource(5))
	for b := range ops {
		armed[b] = map[int]bool{}
		writes := 3 + b
		delta := make([]byte, 8)
		rng.Read(delta)
		m := 1 + b%2 // VLEWs overwritten by WriteVLEWRow
		vs := []int{(b + 1) % vpr, (b + 2) % vpr}[:m]
		datas, codes := make([][]byte, m), make([][]byte, m)
		for i := range vs {
			datas[i], codes[i] = make([]byte, geom.VLEWDataBytes), make([]byte, geom.VLEWCodeBytes)
			rng.Read(datas[i])
			code.EncodeDeltaInto(codes[i][:code.ParityBytes()], datas[i], 0)
		}
		want.RowActivations++
		want.DataWrites += int64(writes)
		want.BitsWritten += int64(writes * 64)
		for k := 0; k < writes; k++ {
			armed[b][(b+k)%vpr] = true
		}
		want.VLEWCodeWrites++ // the ReadVLEWInto of VLEW b%vpr drains it
		delete(armed[b], b%vpr)
		want.RawWrites += int64(m)
		want.BitsWritten += int64(m * 8 * (geom.VLEWDataBytes + geom.VLEWCodeBytes))
		for _, v := range vs {
			delete(armed[b], v)
		}
		want.RowCloses++
		want.VLEWCodeWrites += int64(len(armed[b]))

		ops[b] = func() {
			for k := 0; k < writes; k++ {
				chip.WriteXOR(b, row, ((b+k)%vpr)*geom.VLEWDataBytes+8*k, delta)
			}
			data, vcode := make([]byte, geom.VLEWDataBytes), make([]byte, geom.VLEWCodeBytes)
			chip.ReadVLEWInto(data, vcode, b, row, b%vpr)
			chip.ReadVLEWInto(data, vcode, b, row+1, b%vpr)
			chip.WriteVLEWRow(b, row, vs, datas, codes)
		}
	}
	var wg sync.WaitGroup
	for _, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op()
		}()
	}
	wg.Wait()
	chip.CloseAllRows()
	if got := chip.Stats(); got != want {
		t.Fatalf("folded counters %+v, want %+v", got, want)
	}
	for b := 0; b < geom.Banks; b++ {
		for v := 0; v < vpr; v++ {
			data, vcode := readVLEW(chip, b, row, v)
			if !code.CheckClean(data, vcode[:code.ParityBytes()]) {
				t.Fatalf("bank %d VLEW %d is not a codeword after the close", b, v)
			}
		}
	}
}

// TestBankStateLayout pins the padding that keeps banks off each other's
// cache lines, on the paper geometry (rank.PaperConfig(8, 16, 1024, ·)):
// no byte any bank writes (its record's fields, its EUR registers and slot
// bounds, its parity and delta scratch) may share a 64-B line with a byte
// of another bank's. The record is read field by field, so a field added
// after the pad, or a shrunk pad, fails here.
func TestBankStateLayout(t *testing.T) {
	geom := Geometry{Banks: 8, RowsPerBank: 16, RowDataBytes: 1024, VLEWDataBytes: 256, VLEWCodeBytes: 33}
	chip, err := NewChip(geom, bch.Must(12, 2048, 22), 1)
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		what     string
		from, to uintptr // [from, to)
	}
	bytesOf := func(p []byte) (uintptr, uintptr) {
		a := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		return a, a + uintptr(len(p))
	}
	rt := reflect.TypeOf(bank{})
	spans := make([][]span, geom.Banks)
	for i := range chip.banks {
		b := &chip.banks[i]
		base := uintptr(unsafe.Pointer(b))
		for f := 0; f < rt.NumField(); f++ {
			if fl := rt.Field(f); fl.Name != "_" {
				spans[i] = append(spans[i], span{"record." + fl.Name, base + fl.Offset, base + fl.Offset + fl.Type.Size()})
			}
		}
		slots := uintptr(unsafe.Pointer(unsafe.SliceData(b.slots)))
		spans[i] = append(spans[i], span{"slots", slots, slots + uintptr(len(b.slots))*unsafe.Sizeof(eurSlot{})})
		for _, s := range []struct {
			what string
			p    []byte
		}{{"eur", b.eur}, {"parity", b.parity}, {"delta", b.delta}} {
			from, to := bytesOf(s.p)
			spans[i] = append(spans[i], span{s.what, from, to})
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			for _, a := range spans[i] {
				for _, c := range spans[j] {
					if a.from/cacheLine <= (c.to-1)/cacheLine && c.from/cacheLine <= (a.to-1)/cacheLine {
						t.Errorf("bank %d %s [%#x,%#x) shares a cache line with bank %d %s [%#x,%#x)",
							i, a.what, a.from, a.to, j, c.what, c.from, c.to)
					}
				}
			}
		}
	}
}
