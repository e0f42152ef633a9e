package core

import (
	"fmt"

	"chipkillpm/internal/gf"
	"chipkillpm/internal/nvram"
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

// Degraded reports whether the rank is in degraded (remapped) mode — every
// block striped — and, if so, which data chip was retired.
func (c *Controller) Degraded() (bool, int) {
	if !c.layout.Degraded() {
		return false, -1
	}
	return true, c.layout.FailedChip()
}

// EnterDegradedMode remaps the failed data chip into the parity chip and
// re-encodes every VLEW across the surviving chips. It is the online
// migration run to completion in one call — BeginMigration, then
// MigrateBand until the cursor reaches the end — so a dead chip's data is
// solved from the survivors band by band, and drift on the survivors is
// corrected before the striped code is encoded over them. Only a single
// data-chip failure is supported — a second failure in a degraded rank is
// beyond the scheme, as in the paper.
//
//chipkill:rankwide
func (c *Controller) EnterDegradedMode(failedChip int) error {
	m, err := c.BeginMigration(failedChip, 0)
	if err != nil {
		return err
	}
	for m.Cursor() < c.rank.Blocks() {
		if err := c.MigrateBand(m.Cursor(), nil); err != nil {
			return err
		}
	}
	return nil
}

// stripedLoc maps a block to its striped VLEW's code slot. The 32 striped
// VLEWs of a row spread over the 8 surviving chips' 4 per-row code slots
// (8 x 4 = 32: an exact fit, so reconfiguration adds no capacity).
func (c *Controller) stripedLoc(block int64) (bank, row, chip, slot int, first int64) {
	loc := c.rank.Locate(block)
	first = block - block%StripedBlocksPerVLEW
	bpr := int64(c.rank.Config().BlocksPerRow())
	s := int((block % bpr) / StripedBlocksPerVLEW)
	survivors := c.rank.NumChips() - 1
	h := s % survivors
	// Skip the failed chip when assigning holders.
	if h >= c.layout.FailedChip() {
		h++
	}
	return loc.Bank, loc.Row, h, s / survivors, first
}

// stripedChip returns the chip holding data chip ci's slices in the
// remapped layout: the parity chip stands in for the failed one.
func (c *Controller) stripedChip(ci int) *nvram.Chip {
	if ci == c.layout.FailedChip() {
		ci = c.rank.ParityChipIndex()
	}
	return c.rank.Chip(ci)
}

// gatherStriped reads the four blocks of the striped group starting at
// block first into vlewDataBuf, raw.
func (c *Controller) gatherStriped(first int64) {
	rcfg := c.rank.Config()
	bb, n := rcfg.BlockBytes(), rcfg.ChipAccessBytes
	for i := 0; i < StripedBlocksPerVLEW; i++ {
		loc := c.rank.Locate(first + int64(i))
		for ci := 0; ci < rcfg.DataChips; ci++ {
			off := i*bb + ci*n
			c.stripedChip(ci).ReadDataInto(c.vlewDataBuf[off:off+n], loc.Bank, loc.Row, loc.Col)
		}
	}
}

// decodeStriped is the striped-group read kernel shared by demand reads
// and the striped scrub: the group's four blocks into vlewDataBuf, its
// holder's code slot into vlewCodeBuf, and one BCH decode of the pair in
// place, returning the bits corrected.
func (c *Controller) decodeStriped(first int64) (int, error) {
	c.gatherStriped(first)
	bank, row, chip, slot, _ := c.stripedLoc(first)
	c.rank.Chip(chip).ReadCodeInto(c.vlewCodeBuf, bank, row, slot)
	code := c.rank.Config().VLEWCode
	return code.Decode(c.vlewDataBuf, c.vlewCodeBuf[:code.ParityBytes()])
}

// storeStriped writes a corrected group from vlewDataBuf and vlewCodeBuf
// back: each block's slices raw to their chips, then the holder's code
// slot. It counts nothing; callers do.
func (c *Controller) storeStriped(first int64) {
	rcfg := c.rank.Config()
	bb, n := rcfg.BlockBytes(), rcfg.ChipAccessBytes
	for i := 0; i < StripedBlocksPerVLEW; i++ {
		loc := c.rank.Locate(first + int64(i))
		for ci := 0; ci < rcfg.DataChips; ci++ {
			off := i*bb + ci*n
			c.stripedChip(ci).WriteDataRaw(loc.Bank, loc.Row, loc.Col, c.vlewDataBuf[off:off+n])
		}
	}
	c.setStripedCode(first)
}

// setStripedCode sets the group's holder slot to vlewCodeBuf, whatever it
// held. A chip only XORs code deltas in, so the delta — the slot XOR the
// new code — is staged in vlewDataBuf, whose group the caller has already
// stored or no longer needs.
func (c *Controller) setStripedCode(first int64) {
	bank, row, chip, slot, _ := c.stripedLoc(first)
	holder := c.rank.Chip(chip)
	delta := c.vlewDataBuf[:len(c.vlewCodeBuf)]
	holder.ReadCodeInto(delta, bank, row, slot)
	gf.XORBytes(delta, c.vlewCodeBuf)
	holder.XORCode(bank, row, slot, delta)
}

// stripedFetchBlocks is the bus cost of fetching one striped group: its
// four blocks plus the holder's code slot.
func (c *Controller) stripedFetchBlocks() int64 {
	bb := c.rank.Config().BlockBytes()
	return StripedBlocksPerVLEW + int64((c.rank.Config().Geometry.VLEWCodeBytes+bb-1)/bb)
}

// readDegraded services a read in degraded mode into dst: fetch the
// block's striped VLEW (four blocks + code), decode, and copy the block
// out. Without per-block RS bits this is also the only error detection,
// so every read pays the four-block fetch — the availability-over-
// performance trade Sec V-E describes.
//
//chipkill:noalloc
func (c *Controller) readDegraded(dst []byte, block int64) error {
	bb := c.rank.Config().BlockBytes()
	c.stats.BlockFetches += c.stripedFetchBlocks()
	first := block - block%StripedBlocksPerVLEW
	//chipkill:allow noalloc decode draws from its scratch pool; a clean or corrected group decodes allocation-free
	fixed, err := c.decodeStriped(first)
	if err != nil {
		c.stats.Uncorrectable++
		c.tel.DUEs++
		//chipkill:allow noalloc DUE path, off the steady state
		return fmt.Errorf("block %d (degraded): %w", block, ErrUncorrectable)
	}
	off := int(block-first) * bb
	copy(dst, c.vlewDataBuf[off:off+bb])
	if fixed == 0 {
		c.stats.ReadsClean++
		return nil
	}
	c.stats.BitsCorrectedVLEW += int64(fixed)
	c.stats.ReadsVLEWFallback++
	// Write the corrected VLEW back: without RS bits, leaving errors in
	// place would let them accumulate past 22 per word.
	c.storeStriped(first)
	c.stats.BlockWrites += StripedBlocksPerVLEW
	return nil
}

// writeDegraded applies a write's data delta (old XOR new) to a block in
// the striped layout: each chip's slice is read, XORed and stored raw,
// and the controller folds the delta's code update — EncodeDeltaInto at the
// block's offset within the striped word — into the group's holder slot,
// since the in-chip EUR cannot maintain a cross-chip code word.
//
//chipkill:noalloc
func (c *Controller) writeDegraded(block int64, delta []byte) {
	rcfg := c.rank.Config()
	n := rcfg.ChipAccessBytes
	loc := c.rank.Locate(block)
	cur := c.readCheckBuf
	for ci := 0; ci < rcfg.DataChips; ci++ {
		chip := c.stripedChip(ci)
		chip.ReadDataInto(cur, loc.Bank, loc.Row, loc.Col)
		gf.XORBytes(cur, delta[ci*n:(ci+1)*n])
		chip.WriteDataRaw(loc.Bank, loc.Row, loc.Col, cur)
	}
	bank, row, holder, slot, first := c.stripedLoc(block)
	code := rcfg.VLEWCode
	update := c.vlewCodeBuf[:code.ParityBytes()]
	code.EncodeDeltaInto(update, delta, int(block-first)*rcfg.BlockBytes()*8)
	c.rank.Chip(holder).XORCode(bank, row, slot, update)
}
