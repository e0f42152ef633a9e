package nvram

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"chipkillpm/internal/bch"
)

// TestConcurrentBankDrains races the bank-disjointness contract directly
// rather than through the engine: one goroutine per bank issues row-miss
// WriteXORs to every chip of a shared rank-sized set, so EUR drains run
// concurrently on the same chips (and their shared atomic counters) from
// different banks. The chips share a fresh bch.Code, so the first drains
// also race the one-time delta-table build. Once the goroutines join, every
// chip's cells and counters must equal those of a twin set that took the
// same writes serially. Run under -race by `make race`.
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
		return set
	}
	apply := func(set []*Chip, bank int) {
		for _, w := range plan[bank] {
			for c, chip := range set {
				chip.WriteXOR(bank, w.row, w.off, w.deltas[c])
			}
		}
	}

	concurrent, serial := newSet(), newSet()
	start := make(chan struct{})
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
	for b := 0; b < geom.Banks; b++ {
		apply(serial, b)
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
