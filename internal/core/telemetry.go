package core

// Per-chip error telemetry feeding the health supervisor (internal/guard).
//
// The runtime paths already know which chip each correction or failure
// touched: an accepted RS correction names the symbol position (and thus
// the chip), a VLEW fallback names the chip whose word failed to decode,
// and an erasure reconstruction names the chip that was erased. The
// controller attributes each such event to its chip so a supervisor can
// tell "one chip is dying" from "background drift everywhere" — the online
// profiling HARP argues for, without any offline fault model.

// ChipTelemetry counts error events attributed to one chip.
type ChipTelemetry struct {
	// RSCorrections counts symbols of this chip corrected by accepted
	// opportunistic RS decodes on the runtime read path.
	RSCorrections int64
	// VLEWFailures counts VLEW decode failures of this chip on the
	// fallback path and patrol scrub — the strongest chip-kill signal,
	// since a healthy chip's VLEW decodes through up to 22 bit errors.
	VLEWFailures int64
	// ErasureRepairs counts blocks whose slice on this chip was
	// reconstructed via RS erasure after its VLEW failed.
	ErasureRepairs int64
	// FailedAccesses mirrors nvram.Chip's count of reads served while the
	// chip was marked failed. It is filled at snapshot time from the chip
	// itself (an absolute counter, not a controller-side delta); Add
	// deliberately keeps the receiver's value instead of summing, so
	// aggregating per-shard snapshots over the same rank does not
	// double-count it.
	FailedAccesses int64
}

// Telemetry is a snapshot of per-chip error attribution plus rank-level
// detected-but-uncorrectable totals.
//
// Concurrency: demand paths mutate the controller's telemetry without
// locking (single-owner contract); scrubs publish batched deltas under the
// stats lock. Telemetry() snapshots under the same lock and so may run
// concurrently with scrubs but not with demand traffic — exactly the
// Stats contract.
type Telemetry struct {
	Chips []ChipTelemetry
	// DUEs counts detected-but-uncorrectable reads (rank-level: by the
	// time a read is declared dead, more than one chip is implicated).
	DUEs int64
}

// Add accumulates o into t chip by chip. FailedAccesses is snapshot-level
// (see ChipTelemetry) and is kept from the receiver, except when the
// receiver has no chips yet (a zero-value accumulator adopting its first
// snapshot).
func (t *Telemetry) Add(o Telemetry) {
	adopt := len(t.Chips) == 0
	if adopt {
		t.Chips = make([]ChipTelemetry, len(o.Chips))
	}
	for i := range o.Chips {
		t.Chips[i].RSCorrections += o.Chips[i].RSCorrections
		t.Chips[i].VLEWFailures += o.Chips[i].VLEWFailures
		t.Chips[i].ErasureRepairs += o.Chips[i].ErasureRepairs
		if adopt {
			t.Chips[i].FailedAccesses = o.Chips[i].FailedAccesses
		}
	}
	t.DUEs += o.DUEs
}

// Delta returns t minus prev, the event counts accrued between two
// snapshots — the supervisor's per-tick observation window.
func (t Telemetry) Delta(prev Telemetry) Telemetry {
	d := Telemetry{Chips: make([]ChipTelemetry, len(t.Chips)), DUEs: t.DUEs - prev.DUEs}
	for i := range t.Chips {
		d.Chips[i] = t.Chips[i]
		if i < len(prev.Chips) {
			d.Chips[i].RSCorrections -= prev.Chips[i].RSCorrections
			d.Chips[i].VLEWFailures -= prev.Chips[i].VLEWFailures
			d.Chips[i].ErasureRepairs -= prev.Chips[i].ErasureRepairs
			d.Chips[i].FailedAccesses -= prev.Chips[i].FailedAccesses
		}
	}
	return d
}

// Total returns the sum of the chip's controller-side event counts; a
// quick "anything wrong with this chip?" scalar.
func (ct ChipTelemetry) Total() int64 {
	return ct.RSCorrections + ct.VLEWFailures + ct.ErasureRepairs
}

// Telemetry returns a snapshot of the controller's per-chip error
// attribution, with FailedAccesses filled from the chips' own atomic
// counters (nvram.Chip.FailedAccesses, the one chip counter that is safe
// to read during traffic). Same concurrency contract as Stats: safe
// against scrubs, not against demand traffic.
func (c *Controller) Telemetry() Telemetry {
	c.statsMu.Lock()
	t := Telemetry{Chips: append([]ChipTelemetry(nil), c.tel.Chips...), DUEs: c.tel.DUEs}
	c.statsMu.Unlock()
	for i := range t.Chips {
		t.Chips[i].FailedAccesses = c.rank.Chip(i).FailedAccesses()
	}
	return t
}

// addVLEWFailure publishes one VLEW decode failure of chip ci under the
// stats lock, so supervisors can snapshot concurrently with the patrol
// scrub that found it.
func (c *Controller) addVLEWFailure(ci int) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	c.tel.Chips[ci].VLEWFailures++
}

// chipOfSymbol maps an RS symbol position within a block codeword to the
// chip that stores it: data symbols sit on data chips in 8-byte runs,
// check symbols on the parity chip.
func (c *Controller) chipOfSymbol(pos int) int {
	if pos < c.rank.Config().BlockBytes() {
		return pos / c.rank.Config().ChipAccessBytes
	}
	return c.rank.ParityChipIndex()
}
