package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"chipkillpm/internal/nvram"
	"chipkillpm/internal/rank"
	"chipkillpm/internal/rs"
)

// ScrubReport summarises a boot-time scrub (Sec V-B).
type ScrubReport struct {
	VLEWsScrubbed   int64
	BitsCorrected   int64
	ChipsFailed     []int // chips whose VLEWs were uncorrectable
	ChipsRebuilt    []int // failed chips reconstructed via RS erasure / re-encode
	BlocksRebuilt   int64
	Unrecoverable   bool  // more failures than the scheme tolerates
	BusBlockFetches int64 // block transfers the scrub cost
}

// scrubPartial is one bank's contribution to a pass's totals, merged
// serially after the pool drains so the result is deterministic regardless
// of worker count or scheduling.
type scrubPartial struct {
	vlews, bits   int64
	uncorrectable []VLEWLoc
}

// VLEWLoc addresses one VLEW of one chip in the original layout.
type VLEWLoc struct {
	Chip, Bank, Row, V int
}

// Span returns the VLEW span the word belongs to on a rank of geometry g.
// Span s is blocks s*n .. s*n+n-1 with n = VLEWDataBytes /
// ChipAccessBytes: the same VLEW of every chip, which is exactly one
// fleet band and one degraded-mode migration band.
func (l VLEWLoc) Span(g nvram.Geometry) int64 {
	return (int64(l.Row)*int64(g.Banks)+int64(l.Bank))*int64(g.VLEWsPerRow()) + int64(l.V)
}

// SpanLoc is Span's inverse: chip's VLEW of span s.
func SpanLoc(g nvram.Geometry, chip int, s int64) VLEWLoc {
	vpr := int64(g.VLEWsPerRow())
	rowIdx := s / vpr
	return VLEWLoc{Chip: chip, Bank: int(rowIdx % int64(g.Banks)), Row: int(rowIdx / int64(g.Banks)), V: int(s % vpr)}
}

// BootScrub fetches and decodes every VLEW on every chip, writing
// corrected contents back. A data chip with uncorrectable VLEWs is
// treated as failed and rebuilt through Reed-Solomon erasure correction
// using the parity chip; an uncorrectable parity chip is rebuilt by
// re-encoding the (corrected) data chips. Two or more failed chips exceed
// the scheme's capability.
//
// Both the scan and the rebuild are ScrubRebuild passes. A chip already
// known dead is cleared and rebuilt in the same pass that scans the
// survivors; should that pass convict a second chip, the dead chip is
// failed again and the scrub is unrecoverable. A chip the scan convicts
// is rebuilt by a second pass.
//
// Config.ScrubWorkers sets the pass's worker-pool size (0 = GOMAXPROCS).
//
// A rank with a retired chip is split at the layout cursor. Below it the
// code slots hold striped codes, so the scrub walks those striped groups
// (the degraded patrol's kernel, serially); a degraded rank is all
// groups. The spans at or above it still hold the original layout and
// get a ScrubRebuild scan restricted to them. With a chip already
// retired nothing is left to rebuild from, so a group or survivor VLEW
// beyond the code, or a second dead chip, makes the scrub unrecoverable;
// the retired chip itself is never convicted or rebuilt.
//
//chipkill:rankwide
func (c *Controller) BootScrub() ScrubReport {
	var rep ScrubReport
	var d Stats // batched counter delta, published under the stats lock
	defer func() { c.addStats(d) }()
	r := c.rank
	rcfg := r.Config()
	r.CloseAllRows()
	workers := c.cfg.ScrubWorkers
	fetchesPerVLEW := int64(rcfg.Geometry.VLEWDataBytes/rcfg.ChipAccessBytes) / int64(rcfg.DataChips)

	if retired := c.layout.FailedChip(); retired >= 0 {
		cursor := c.layout.Cursor()
		groups := cursor / StripedBlocksPerVLEW
		_, d = c.scrubStriped(0, int(groups))
		rep.VLEWsScrubbed, rep.BitsCorrected = groups, d.ScrubCorrections
		rep.BusBlockFetches = groups * c.stripedFetchBlocks()
		unrecoverable := d.ScrubUncorrectable > 0
		if bb := c.BandBlocks(); cursor < r.Blocks() {
			want := make([]bool, r.Blocks()/bb)
			for s := cursor / bb; s < int64(len(want)); s++ {
				want[s] = true
			}
			vlews, bits, beyond := ScrubRebuild(r, nil, -1, want, workers)
			rep.VLEWsScrubbed += vlews
			rep.BitsCorrected += bits
			rep.BusBlockFetches += vlews * fetchesPerVLEW
			d.ScrubCorrections += bits
			d.ScrubbedVLEWs += vlews
			failed := make([]bool, r.NumChips())
			for ci := range failed {
				failed[ci] = ci != retired && !r.Chip(ci).Healthy()
			}
			for _, loc := range beyond {
				failed[loc.Chip] = failed[loc.Chip] || loc.Chip != retired
			}
			for ci, bad := range failed {
				if bad {
					rep.ChipsFailed = append(rep.ChipsFailed, ci)
					unrecoverable = true
				}
			}
		}
		if unrecoverable {
			rep.Unrecoverable = true
			d.Uncorrectable++
		}
		return rep
	}

	failed := make([]bool, r.NumChips())
	var dead []int
	for ci := range failed {
		if !r.Chip(ci).Healthy() { // a known-dead chip is not scanned
			failed[ci] = true
			dead = append(dead, ci)
		}
	}
	rebuilt := -1
	var solver *rs.ErasureSolver
	if len(dead) == 1 {
		rebuilt = dead[0]
		solver = c.chipSolver(rebuilt)
		r.RepairChip(rebuilt)
	}
	vlews, bits, beyond := ScrubRebuild(r, solver, rebuilt, nil, workers)
	rep.VLEWsScrubbed, rep.BitsCorrected = vlews, bits
	rep.BusBlockFetches = rep.VLEWsScrubbed * fetchesPerVLEW
	d.ScrubCorrections += rep.BitsCorrected
	d.ScrubbedVLEWs += rep.VLEWsScrubbed

	for _, loc := range beyond {
		failed[loc.Chip] = true
	}
	for ci, bad := range failed {
		if bad {
			rep.ChipsFailed = append(rep.ChipsFailed, ci)
		}
	}

	switch len(rep.ChipsFailed) {
	case 0:
		return rep
	case 1:
		ci := rep.ChipsFailed[0]
		if ci != rebuilt { // convicted by the scan: rebuild it in a second pass
			r.RepairChip(ci)
			ScrubRebuild(r, c.chipSolver(ci), ci, nil, workers)
		}
		rep.BlocksRebuilt += r.Blocks()
		rep.BusBlockFetches += r.Blocks()
		d.ChipFailuresCorrected++
		rep.ChipsRebuilt = append(rep.ChipsRebuilt, ci)
		return rep
	default:
		if rebuilt >= 0 {
			r.FailChip(rebuilt) // its rebuild read a survivor beyond the code
		}
		rep.Unrecoverable = true
		d.Uncorrectable++
		return rep
	}
}

// ScrubRebuild is the rank's recovery pass, one row at a time. It
// BCH-decodes every VLEW of every healthy chip of r except ci in place,
// writing corrected contents back, and returns the VLEWs scanned, the bits
// corrected and where each VLEW beyond the code is, in (bank, row, chip,
// v) order (those are left as found). want selects spans (want[s] for
// span s, see VLEWLoc.Span; nil selects every span). With ci < 0 the scan
// covers only the selected spans. With ci >= 0 it covers them all, and
// the same pass then rebuilds chip ci's VLEWs of the selected spans from
// the survivors' just corrected row: the caller has cleared ci with
// Rank.RepairChip, and
// solver is ci's erasure solver (NewChipSolver). A block's slice on the
// chip is the RS erasure solution for the chip's eight symbols — for the
// parity chip simply the re-encoded check bytes (Sec V-B) — solved
// straight from the survivors' row buffers (ErasureSolver.SolveWords),
// BCH-encoded once per VLEW and landed with one WriteVLEWRow per row.
// Spans not selected are left as they are. The caller has closed all rows
// and holds the rank quiesced.
//
// RS(72,64) with a whole chip erased has no check symbol left, so a
// rebuild is only as good as the survivors under it: a rebuilt span
// whose survivors hold a VLEW beyond the code (reported) or whose other
// chip has failed (its cells are not read; the solve sees zeros) is
// garbage, and the caller must fail ci again or take the span elsewhere.
//
// Workers (0 = GOMAXPROCS) take whole banks, modelling a controller that
// scrubs banks in parallel under the rank's bank-level parallelism; banks
// are disjoint under the nvram.Chip contract. Decoding VLEWs dominates
// the cost and runs without locks; only the per-chip ReadVLEWInto and
// WriteVLEWRow accesses synchronise.
//
//chipkill:rankwide
func ScrubRebuild(r *rank.Rank, solver *rs.ErasureSolver, ci int, want []bool, workers int) (vlews, bitsCorrected int64, uncorrectable []VLEWLoc) {
	rcfg := r.Config()
	g, code := rcfg.Geometry, rcfg.VLEWCode
	nchips := r.NumChips()
	scan := make([]int, 0, nchips)
	for chip := 0; chip < nchips; chip++ {
		if chip != ci && r.Chip(chip).Healthy() {
			scan = append(scan, chip)
		}
	}

	partials := make([]scrubPartial, g.Banks)
	fanOut(workers, g.Banks, func() func(int) {
		// Per-worker working set: one data/code buffer pair per VLEW of
		// a row on every chip, reused for every row the worker visits
		// (ReadVLEWInto fills them in place), plus the row's write-back
		// batch and the word solve's view of one VLEW across the chips.
		// A worker allocates once, not per VLEW or per block.
		vpr := g.VLEWsPerRow()
		rowData, rowCode := rowBuffers(g, nchips)
		vs := make([]int, 0, vpr)
		datas := make([][]byte, 0, vpr)
		codes := make([][]byte, 0, vpr)
		src := make([][]byte, nchips)
		return func(bank int) {
			p := &partials[bank]
			for row := 0; row < g.RowsPerBank; row++ {
				for _, chip := range scan {
					vs, datas, codes = vs[:0], datas[:0], codes[:0]
					for v := 0; v < vpr; v++ {
						if ci < 0 && want != nil && !want[VLEWLoc{Bank: bank, Row: row, V: v}.Span(g)] {
							continue
						}
						p.vlews++
						data, vcode := rowData[chip*vpr+v], rowCode[chip*vpr+v]
						r.Chip(chip).ReadVLEWInto(data, vcode, bank, row, v)
						fixed, err := code.Decode(data, vcode[:code.ParityBytes()])
						if err != nil {
							p.uncorrectable = append(p.uncorrectable, VLEWLoc{Chip: chip, Bank: bank, Row: row, V: v})
							continue
						}
						if fixed > 0 {
							p.bits += int64(fixed)
							vs, datas, codes = append(vs, v), append(datas, data), append(codes, vcode)
						}
					}
					// One locked write-back per row covers every corrected
					// VLEW in it, instead of one lock round-trip per VLEW.
					if len(vs) > 0 {
						r.Chip(chip).WriteVLEWRow(bank, row, vs, datas, codes)
					}
				}
				if ci < 0 {
					continue
				}
				vs, datas, codes = vs[:0], datas[:0], codes[:0]
				for v := 0; v < vpr; v++ {
					if want != nil && !want[VLEWLoc{Bank: bank, Row: row, V: v}.Span(g)] {
						continue
					}
					for chip := range src {
						src[chip] = rowData[chip*vpr+v]
					}
					data, vcode := rowData[ci*vpr+v], rowCode[ci*vpr+v]
					solver.SolveWords(data, src)
					code.EncodeDeltaInto(vcode[:code.ParityBytes()], data, 0)
					vs, datas, codes = append(vs, v), append(datas, data), append(codes, vcode)
				}
				if len(vs) > 0 {
					r.Chip(ci).WriteVLEWRow(bank, row, vs, datas, codes)
				}
			}
		}
	})
	for i := range partials {
		p := &partials[i]
		vlews += p.vlews
		bitsCorrected += p.bits
		uncorrectable = append(uncorrectable, p.uncorrectable...)
	}
	return vlews, bitsCorrected, uncorrectable
}

// fanOut runs body(i) for every i in [0, n) on up to `workers` goroutines
// (GOMAXPROCS when workers <= 0) and waits for them. newWorker is called
// once per goroutine to build its private working set and returns that
// goroutine's body.
func fanOut(workers, n int, newWorker func() func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := newWorker()
			for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
				body(i)
			}
		}()
	}
	wg.Wait()
}

// rowBuffers carves the per-VLEW data and code buffers of one row of
// every chip out of two slabs: buffer chip*VLEWsPerRow+v holds VLEW v of
// the chip's row.
func rowBuffers(g nvram.Geometry, chips int) (data, code [][]byte) {
	n := chips * g.VLEWsPerRow()
	dataSlab, codeSlab := make([]byte, n*g.VLEWDataBytes), make([]byte, n*g.VLEWCodeBytes)
	data, code = make([][]byte, n), make([][]byte, n)
	for i := range data {
		data[i] = dataSlab[i*g.VLEWDataBytes : (i+1)*g.VLEWDataBytes]
		code[i] = codeSlab[i*g.VLEWCodeBytes : (i+1)*g.VLEWCodeBytes]
	}
	return data, code
}

// String renders the report.
func (r ScrubReport) String() string {
	return fmt.Sprintf("scrub: %d VLEWs, %d bits corrected, failed chips %v, rebuilt %v (%d blocks), unrecoverable=%v",
		r.VLEWsScrubbed, r.BitsCorrected, r.ChipsFailed, r.ChipsRebuilt, r.BlocksRebuilt, r.Unrecoverable)
}

// PatrolScrub incrementally scrubs `count` VLEW groups starting at the
// given scan position, returning the next position. Runtime patrol
// scrubbing (refresh) bounds how long cells sit unrefreshed and therefore
// the runtime RBER (Sec IV: refreshing once per hour holds 3-bit PCM at
// 2e-4); a background task calling PatrolScrub in a loop implements the
// refresh policy without the bus-saturating full-memory sweeps the paper
// warns about.
//
// The position encodes (chip, bank, row, vlew) linearly in the original
// layout — or a striped-group index in degraded mode — and callers treat
// it as opaque, wrapping at TotalPatrolUnits. During an online migration
// the patrol is a no-op (pos is returned unchanged): a mid-migration rank
// holds both layouts at once and only the supervisor knows where the
// boundary is, so the guard pauses patrol until migration completes.
func (c *Controller) PatrolScrub(pos int64, count int) (next int64, corrected int64) {
	if c.layout.Degraded() {
		next, d := c.scrubStriped(pos, count)
		c.addStats(d)
		return next, d.ScrubCorrections
	}
	if c.layout.FailedChip() >= 0 {
		return pos, 0
	}
	r := c.rank
	g := r.Config().Geometry
	code := r.Config().VLEWCode
	total := c.TotalPatrolUnits()
	var d Stats // published under the stats lock after the walk
	// The walk decodes in the controller's VLEW scratch, as ProbeVLEW
	// does (the caller holds the shard's writer lock), so a patrol run
	// allocates nothing.
	data, vcode := c.vlewDataBuf, c.vlewCodeBuf
	for i := 0; i < count; i++ {
		p := (pos + int64(i)) % total
		vpr := int64(g.VLEWsPerRow())
		ci := int(p / (int64(g.Banks) * int64(g.RowsPerBank) * vpr))
		chip := r.Chip(ci)
		rem := p % (int64(g.Banks) * int64(g.RowsPerBank) * vpr)
		bank := int(rem / (int64(g.RowsPerBank) * vpr))
		rem %= int64(g.RowsPerBank) * vpr
		row := int(rem / vpr)
		v := int(rem % vpr)
		if !chip.Healthy() {
			continue
		}
		chip.ReadVLEWInto(data, vcode, bank, row, v)
		fixed, err := code.Decode(data, vcode[:code.ParityBytes()])
		if err != nil {
			d.ScrubUncorrectable++
			c.addVLEWFailure(ci)
			continue
		}
		if fixed > 0 {
			chip.WriteVLEW(bank, row, v, data, vcode)
			corrected += int64(fixed)
		}
		d.ScrubbedVLEWs++
	}
	d.ScrubCorrections = corrected
	c.addStats(d)
	return (pos + int64(count)) % total, corrected
}

// scrubStriped is the degraded-mode scrub walk, shared by the patrol and
// the boot scrub: each unit is one striped VLEW group (the only error
// detection left once the per-block RS bits are sacrificed), decoded and
// written back on correction. It returns the next position and the
// counter delta for the caller to publish.
func (c *Controller) scrubStriped(pos int64, count int) (next int64, d Stats) {
	total := c.TotalPatrolUnits()
	for i := 0; i < count; i++ {
		first := ((pos + int64(i)) % total) * StripedBlocksPerVLEW
		fixed, err := c.decodeStriped(first)
		if err != nil {
			d.ScrubUncorrectable++
			continue
		}
		if fixed > 0 {
			c.storeStriped(first)
			d.ScrubCorrections += int64(fixed)
			d.BlockWrites += StripedBlocksPerVLEW
		}
		d.ScrubbedVLEWs++
	}
	return (pos + int64(count)) % total, d
}

// TotalPatrolUnits returns the number of patrol positions: VLEWs across
// all chips in the original layout, striped groups in degraded mode.
func (c *Controller) TotalPatrolUnits() int64 {
	if c.layout.Degraded() {
		return c.rank.Blocks() / StripedBlocksPerVLEW
	}
	g := c.rank.Config().Geometry
	return int64(c.rank.NumChips()) * int64(g.Banks) * int64(g.RowsPerBank) * int64(g.VLEWsPerRow())
}

// ProbeVLEW decodes one VLEW of one chip in the original layout, without
// write-back, and reports whether it decoded. This is the health
// supervisor's transient-vs-permanent discriminator: a dead chip returns
// fresh garbage on every read, so essentially every probe fails, while a
// transient storm leaves isolated broken words that fail at most a few of
// a spread of probes. The caller must hold the VLEW's bank lock (or own
// the controller outright) — ReadVLEWInto drains the word's pending EUR
// update first, and the probe decodes in the controller's VLEW scratch.
func (c *Controller) ProbeVLEW(chip, bank, row, v int) bool {
	code := c.rank.Config().VLEWCode
	data, vcode := c.vlewDataBuf, c.vlewCodeBuf
	c.rank.Chip(chip).ReadVLEWInto(data, vcode, bank, row, v)
	_, err := code.Decode(data, vcode[:code.ParityBytes()])
	return err == nil
}

// ReadVLEWInto fetches one VLEW of one chip in the original layout into
// data (VLEWDataBytes) and code (VLEWCodeBytes) and BCH-corrects it there,
// writing nothing back. It reports false when the word cannot stand for
// the blocks it covers: the rank is degraded or mid-migration (the
// original-layout VLEW no longer holds them), the chip has failed, a
// block of this controller has been retired (its cells were zeroed under
// the data), or the VLEW is beyond the code. Same locking contract as
// ProbeVLEW.
func (c *Controller) ReadVLEWInto(chip, bank, row, v int, data, code []byte) bool {
	ch := c.rank.Chip(chip)
	if c.layout.FailedChip() >= 0 || len(c.disabled) != 0 || !ch.Healthy() {
		return false
	}
	ch.ReadVLEWInto(data, code, bank, row, v)
	vc := c.rank.Config().VLEWCode
	_, err := vc.Decode(data, code[:vc.ParityBytes()])
	return err == nil
}
