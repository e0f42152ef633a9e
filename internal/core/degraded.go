package core

import (
	"fmt"
)

// Degraded-mode operation (Sec V-E).
//
// After a data chip fails permanently, one recovery option is to retire
// the rank. The paper's alternative keeps the rank in service: the failed
// chip's contents are remapped into the ECC (parity) chip — sacrificing
// the per-block Reed-Solomon bits — and every VLEW is dynamically
// re-encoded over 256 B of data *striped across the surviving chips*
// instead of 256 B within one chip. A reconfigured VLEW therefore covers
// four consecutive 64 B blocks, so correcting a block's bit errors
// requires fetching only four blocks via regular requests, and the VLEW
// length and strength (and thus capacity overhead) are unchanged.
//
// Each rank row holds 128 blocks = 32 striped VLEWs, and the eight
// surviving chips provide 8 x 4 = 32 per-row code slots — an exact fit,
// so the reconfigured code bits live in the existing code regions with no
// added capacity. The in-chip EUR cannot maintain cross-chip code words,
// so code updates move to the controller — one of degraded mode's costs,
// alongside losing per-block error detection (every degraded read
// verifies through its striped VLEW).

// StripedBlocksPerVLEW is how many 64B blocks one reconfigured VLEW
// covers: 256B of data striped across the rank. Exported so layered
// callers (engine patrol routing, the guard's degraded patrol) can map
// striped-group indices to blocks.
const StripedBlocksPerVLEW = 4

// stripedBlocksPerVLEW is the package-internal alias.
const stripedBlocksPerVLEW = StripedBlocksPerVLEW

// Degraded reports whether the controller is in degraded (remapped) mode
// and, if so, which data chip was retired.
func (c *Controller) Degraded() (bool, int) { return c.degraded, c.failedChip }

// stripedLoc maps a block to its striped VLEW's code slot. The 32 striped
// VLEWs of a row spread over the 8 surviving chips' 4 per-row code slots
// (8 x 4 = 32: an exact fit, so reconfiguration adds no capacity).
func (c *Controller) stripedLoc(block int64) (bank, row, chip, slot int, first int64) {
	loc := c.rank.Locate(block)
	first = block - block%stripedBlocksPerVLEW
	bpr := int64(c.rank.Config().BlocksPerRow())
	s := int((block % bpr) / stripedBlocksPerVLEW)
	survivors := c.rank.NumChips() - 1
	h := s % survivors
	// Skip the failed chip when assigning holders.
	if h >= c.failedChip {
		h++
	}
	return loc.Bank, loc.Row, h, s / survivors, first
}

// stripedData gathers the 256B of data one striped VLEW covers, reading
// each block raw (failed-chip slices come from the parity chip's data
// region, where the remap placed them).
func (c *Controller) stripedData(first int64) []byte {
	bb := c.rank.Config().BlockBytes()
	out := make([]byte, stripedBlocksPerVLEW*bb)
	for i := 0; i < stripedBlocksPerVLEW; i++ {
		c.readRawDegraded(out[i*bb:(i+1)*bb], first+int64(i))
	}
	return out
}

// readRawDegraded gathers one block's bytes in the remapped layout into
// dst (BlockBytes long).
func (c *Controller) readRawDegraded(dst []byte, block int64) {
	rcfg := c.rank.Config()
	loc := c.rank.Locate(block)
	n := rcfg.ChipAccessBytes
	for ci := 0; ci < rcfg.DataChips; ci++ {
		src := ci
		if ci == c.failedChip {
			src = c.rank.ParityChipIndex()
		}
		c.rank.Chip(src).ReadDataInto(dst[ci*n:(ci+1)*n], loc.Bank, loc.Row, loc.Col)
	}
}

// EnterDegradedMode remaps the failed data chip into the parity chip and
// re-encodes every VLEW across the surviving chips. The rank must already
// be scrubbed (BootScrub reconstructs the failed chip's data); the method
// performs the reconstruction itself when the chip is still marked
// failed. Only a single data-chip failure is supported — a second failure
// in a degraded rank is beyond the scheme, as in the paper.
//
//chipkill:rankwide
func (c *Controller) EnterDegradedMode(failedChip int) error {
	if c.degraded {
		return fmt.Errorf("core: already degraded (chip %d): %w", c.failedChip, ErrChipFailed)
	}
	if c.mig != nil {
		return fmt.Errorf("core: cannot enter degraded mode stop-the-world: %w", ErrMigrationInProgress)
	}
	if failedChip < 0 || failedChip >= c.rank.Config().DataChips {
		return fmt.Errorf("core: chip %d is not a data chip", failedChip)
	}
	r := c.rank
	rcfg := r.Config()
	n := rcfg.ChipAccessBytes
	code := rcfg.VLEWCode
	r.CloseAllRows()

	parity := r.Chip(r.ParityChipIndex())
	if !parity.Healthy() {
		return fmt.Errorf("core: parity chip unavailable for remapping: %w", ErrChipFailed)
	}

	// Step 1: place the failed chip's data into the parity chip. If the
	// chip is dead, reconstruct each slice via RS erasure first.
	dead := !r.Chip(failedChip).Healthy()
	data, check := make([]byte, rcfg.BlockBytes()), make([]byte, n)
	for b := int64(0); b < r.Blocks(); b++ {
		r.ReadBlockRawInto(b, data, check)
		if dead {
			c.chipSolver(failedChip).Solve(data, check)
		}
		loc := r.Locate(b)
		parity.WriteDataRaw(loc.Bank, loc.Row, loc.Col, data[failedChip*n:(failedChip+1)*n])
	}
	c.degraded = true
	c.failedChip = failedChip

	// Step 2: re-encode all VLEWs in the striped layout, overwriting the
	// per-chip code slots.
	fresh, old := make([]byte, rcfg.Geometry.VLEWCodeBytes), make([]byte, rcfg.Geometry.VLEWCodeBytes)
	for first := int64(0); first < r.Blocks(); first += stripedBlocksPerVLEW {
		bank, row, chip, slot, _ := c.stripedLoc(first)
		copy(fresh, code.Encode(c.stripedData(first)))
		holder := r.Chip(chip)
		holder.ReadCodeInto(old, bank, row, slot)
		for i := range old {
			old[i] ^= fresh[i] // XOR to the fresh value regardless of old content
		}
		holder.XORCode(bank, row, slot, old)
	}
	return nil
}

// AdoptDegradedMode switches the controller's addressing to the degraded
// (remapped) layout without performing the physical remap itself. The
// sharded engine uses it: one shard's controller runs EnterDegradedMode
// (which rewrites the whole rank under quiescence) and every other shard
// adopts the resulting layout, since the striped format on the chips is a
// rank-wide property, not per-controller state.
func (c *Controller) AdoptDegradedMode(failedChip int) error {
	if c.degraded {
		return fmt.Errorf("core: already degraded (chip %d): %w", c.failedChip, ErrChipFailed)
	}
	if c.mig != nil {
		return fmt.Errorf("core: cannot adopt degraded mode: %w", ErrMigrationInProgress)
	}
	if failedChip < 0 || failedChip >= c.rank.Config().DataChips {
		return fmt.Errorf("core: chip %d is not a data chip", failedChip)
	}
	c.degraded = true
	c.failedChip = failedChip
	return nil
}

// readDegraded services a read in degraded mode: fetch the block's
// striped VLEW (four blocks + code), decode, and return the block.
// Without per-block RS bits this is also the only error detection, so
// every read pays the four-block fetch — the availability-over-
// performance trade Sec V-E describes.
func (c *Controller) readDegraded(block int64) ([]byte, error) {
	rcfg := c.rank.Config()
	code := rcfg.VLEWCode
	bank, row, chip, slot, first := c.stripedLoc(block)
	c.stats.BlockFetches += stripedBlocksPerVLEW +
		int64((rcfg.Geometry.VLEWCodeBytes+rcfg.BlockBytes()-1)/rcfg.BlockBytes())

	data, vcode := c.stripedData(first), c.vlewCodeBuf
	c.rank.Chip(chip).ReadCodeInto(vcode, bank, row, slot)
	fixed, err := code.Decode(data, vcode[:code.ParityBytes()])
	if err != nil {
		c.stats.Uncorrectable++
		c.tel.DUEs++
		return nil, fmt.Errorf("block %d (degraded): %w", block, ErrUncorrectable)
	}
	if fixed > 0 {
		c.stats.BitsCorrectedVLEW += int64(fixed)
		c.stats.ReadsVLEWFallback++
		// Write the corrected VLEW back: without RS bits, leaving errors
		// in place would let them accumulate past 22 per word.
		c.writeBackStriped(first, data, vcode, bank, row, chip, slot)
	} else {
		c.stats.ReadsClean++
	}
	off := int((block - first)) * rcfg.BlockBytes()
	return data[off : off+rcfg.BlockBytes()], nil
}

// writeBackStriped stores corrected striped data and code on the demand
// path, counting the writes against the unlocked demand stats.
func (c *Controller) writeBackStriped(first int64, data, vcode []byte, bank, row, chip, slot int) {
	c.writeBackStripedRaw(first, data, vcode, bank, row, chip, slot)
	c.stats.BlockWrites += stripedBlocksPerVLEW
}

// writeBackStripedRaw performs the physical striped write-back without
// touching stats, so patrol scrub (which publishes batched counters under
// the stats lock) can share it.
func (c *Controller) writeBackStripedRaw(first int64, data, vcode []byte, bank, row, chip, slot int) {
	rcfg := c.rank.Config()
	n := rcfg.ChipAccessBytes
	for i := int64(0); i < stripedBlocksPerVLEW; i++ {
		loc := c.rank.Locate(first + i)
		blockData := data[int(i)*rcfg.BlockBytes() : (int(i)+1)*rcfg.BlockBytes()]
		for ci := 0; ci < rcfg.DataChips; ci++ {
			dst := ci
			if ci == c.failedChip {
				dst = c.rank.ParityChipIndex()
			}
			c.rank.Chip(dst).WriteDataRaw(loc.Bank, loc.Row, loc.Col, blockData[ci*n:(ci+1)*n])
		}
	}
	holder := c.rank.Chip(chip)
	old := make([]byte, len(vcode))
	holder.ReadCodeInto(old, bank, row, slot)
	for i := range old {
		old[i] ^= vcode[i]
	}
	holder.XORCode(bank, row, slot, old)
}

// writeDegraded services a write in degraded mode: the controller reads
// the old block (through the verifying degraded read), stores the new
// data raw, and updates the striped VLEW code with the linear delta.
func (c *Controller) writeDegraded(block int64, newData []byte) error {
	rcfg := c.rank.Config()
	code := rcfg.VLEWCode
	n := rcfg.ChipAccessBytes

	old, hit := c.omv.OMV(block)
	if hit {
		c.stats.OMVHits++
	} else {
		c.stats.OMVMisses++
		var err error
		old, err = c.readDegraded(block)
		if err != nil {
			return fmt.Errorf("core: degraded OMV fetch for block %d: %w", block, err)
		}
	}
	delta := make([]byte, len(newData))
	for i := range delta {
		delta[i] = old[i] ^ newData[i]
	}

	loc := c.rank.Locate(block)
	cur := make([]byte, n)
	for ci := 0; ci < rcfg.DataChips; ci++ {
		dst := ci
		if ci == c.failedChip {
			dst = c.rank.ParityChipIndex()
		}
		chip := c.rank.Chip(dst)
		chip.ReadDataInto(cur, loc.Bank, loc.Row, loc.Col)
		for i := 0; i < n; i++ {
			cur[i] ^= delta[ci*n+i]
		}
		chip.WriteDataRaw(loc.Bank, loc.Row, loc.Col, cur)
	}

	// Controller-side code update: EncodeDelta at the block's offset
	// within the striped word.
	bank, row, chip, slot, first := c.stripedLoc(block)
	update := code.EncodeDelta(delta, int(block-first)*rcfg.BlockBytes()*8)
	c.rank.Chip(chip).XORCode(bank, row, slot, update)
	c.stats.BlockWrites++
	return nil
}
