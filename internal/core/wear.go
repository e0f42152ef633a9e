package core

import (
	"bytes"
	"fmt"
)

// Wear leveling (Sec V-E). NVRAM cells endure a limited number of writes,
// so production systems remap hot blocks across the physical address
// space. The paper notes its VLEW protection is compatible with the
// Start-Gap scheme of Qureshi et al. [87]: after remapping a block, the
// memory controller updates the vacated location's VLEW code bits as if
// the physical bits now hold zeros — exactly what writing zeros through
// the normal XOR path does, so no new machinery is needed.
//
// StartGap implements that scheme on top of a Controller: N logical
// blocks map onto N+1 physical blocks, with one roving "gap" block that
// is always zero. Every MoveInterval writes the gap advances by one
// position, slowly rotating the logical-to-physical mapping so that a
// write-hammered logical block spreads its wear over many physical rows.
type StartGap struct {
	ctrl *Controller
	n    int64 // logical blocks (physical - 1)
	// start and gap define the mapping: PA = (LA+start) mod n, plus one
	// when PA >= gap. The gap slot is always zero.
	start int64
	gap   int64
	// MoveInterval is how many writes occur between gap movements
	// (Qureshi et al. use 100: <1% write overhead).
	moveInterval int64
	writeCount   int64
	gapMoves     int64
}

// NewStartGap wraps a controller with start-gap wear leveling. The
// controller's last physical block becomes the initial gap and must be
// zero (freshly initialised memory is). moveInterval must be positive.
func NewStartGap(ctrl *Controller, moveInterval int64) (*StartGap, error) {
	if moveInterval < 1 {
		return nil, fmt.Errorf("core: move interval must be >= 1")
	}
	total := ctrl.Rank().Blocks()
	if total < 2 {
		return nil, fmt.Errorf("core: start-gap needs at least 2 physical blocks")
	}
	return &StartGap{
		ctrl:         ctrl,
		n:            total - 1,
		gap:          total - 1,
		moveInterval: moveInterval,
	}, nil
}

// Blocks returns the logical capacity (one block less than physical).
func (s *StartGap) Blocks() int64 { return s.n }

// GapMoves returns how many gap movements have occurred.
func (s *StartGap) GapMoves() int64 { return s.gapMoves }

// Physical returns the current physical block for a logical address.
func (s *StartGap) Physical(logical int64) int64 {
	if logical < 0 || logical >= s.n {
		panic(fmt.Sprintf("core: logical block %d out of range [0,%d)", logical, s.n))
	}
	p := (logical + s.start) % s.n
	if p >= s.gap {
		p++
	}
	return p
}

// ReadInto reads a logical block into dst (BlockBytes long).
func (s *StartGap) ReadInto(logical int64, dst []byte) error {
	return s.ctrl.ReadBlockInto(s.Physical(logical), dst)
}

// Write writes a logical block, advancing the gap every moveInterval
// writes.
func (s *StartGap) Write(logical int64, data []byte) error {
	if err := s.ctrl.WriteBlock(s.Physical(logical), data); err != nil {
		return err
	}
	s.writeCount++
	if s.writeCount%s.moveInterval == 0 {
		return s.moveGap()
	}
	return nil
}

// moveGap advances the gap one position: the block just before the gap
// moves into the gap slot and its old location becomes the (zeroed) gap.
// Both the data move and the zeroing go through the controller's normal
// XOR write path, so every VLEW's code bits stay consistent — the
// vacated location's VLEW sees exactly the "assume zeros" update the
// paper describes.
func (s *StartGap) moveGap() error {
	total := s.n + 1
	src := s.gap - 1
	if s.gap == 0 {
		src = total - 1
	}
	data, err := s.ctrl.readForInternalUse(src)
	if err != nil {
		return fmt.Errorf("core: gap move read: %w", err)
	}
	// The gap slot is zero by invariant, so the move is delta = data.
	s.ctrl.writeDelta(s.gap, data)
	// Zero the vacated slot: delta = current value.
	s.ctrl.writeDelta(src, data)
	if s.gap == 0 {
		s.gap = total - 1
		s.start = (s.start + 1) % s.n
	} else {
		s.gap--
	}
	s.gapMoves++
	return nil
}

// ErrBlockWorn reports that a verified write found bits that no longer
// accept new values; the caller should relocate the data and disable the
// block (Sec V-E's write-verify flow [86]).
var ErrBlockWorn = fmt.Errorf("core: block has worn-out cells")

// WriteBlockVerified writes a block and immediately re-reads the raw
// cells to detect worn-out (stuck) bits, the identification flow the
// paper describes: "prior works check whether errors remain in a block
// after error correction by re-reading the block right after writing it".
// On detecting wear it retires the block via DisableBlock and returns
// ErrBlockWorn; the caller still holds the data and can relocate it.
//
// The verify read compares raw stored bytes against the intended values,
// so transient errors injected *after* the write do not false-positive;
// only cells that refused the write trip it.
func (c *Controller) WriteBlockVerified(block int64, data []byte) error {
	if err := c.WriteBlock(block, data); err != nil {
		return err
	}
	stored, check, wantCheck := c.internalBuf, c.readCheckBuf, c.checkDelta
	c.rank.ReadBlockRawInto(block, stored, check)
	c.rsCode.EncodeInto(wantCheck, data)
	worn := !bytes.Equal(stored, data) || !bytes.Equal(check, wantCheck)
	if !worn {
		return nil
	}
	c.DisableBlock(block)
	return fmt.Errorf("block %d: %w", block, ErrBlockWorn)
}
