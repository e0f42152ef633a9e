// Package inject exercises the quiescence rows: quiescence-class chip
// mutations are only legal with engine.rank held or from
// //chipkill:rankwide functions.
package inject

import (
	"rankstub/internal/engine"
	"rankstub/internal/nvram"
	"rankstub/internal/rank"
)

// campaign mutates chips while the engine may be serving reads.
func campaign(c *nvram.Chip, r *rank.Rank) {
	c.Fail()              // want `quiescence-class chip mutation rankstub/internal/nvram.Chip.Fail called without engine.rank held and outside a //chipkill:rankwide function`
	c.WearOutBit(0, 1, 2) // want `quiescence-class chip mutation rankstub/internal/nvram.Chip.WearOutBit called without`
	r.FailChip(0)         // want `quiescence-class chip mutation rankstub/internal/rank.Rank.FailChip called without`
	c.CloseBankRows(2)    // bank-scoped: legal anywhere
}

// harness runs strictly serially before the engine exists.
//
//chipkill:rankwide
func harness(c *nvram.Chip, r *rank.Rank) {
	c.Fail()
	c.Repair()
	r.InjectRetentionErrors(8)
}

// quiesced holds engine.rank inside the literal.
func quiesced(e *engine.Engine, c *nvram.Chip) {
	e.Quiesce(func() {
		c.FlipDataBit(0, 0, 0)
	})
	c.FlipCodeBit(0, 0, 0) // want `quiescence-class chip mutation rankstub/internal/nvram.Chip.FlipCodeBit called without`
}

// spawned starts the mutation on a new goroutine, which holds none of
// the locks of the Quiesce section that starts it.
func spawned(e *engine.Engine, c *nvram.Chip) {
	e.Quiesce(func() {
		go c.Fail() // want `quiescence-class chip mutation rankstub/internal/nvram.Chip.Fail called without`
		go func() {
			c.Repair() // want `quiescence-class chip mutation rankstub/internal/nvram.Chip.Repair called without`
		}()
	})
}

// held requires engine.rank on entry, which callers prove to lockorder.
//
//chipkill:holds engine.rank
func held(c *nvram.Chip, r *rank.Rank) {
	c.Repair()
	r.CloseAllRows()
}

// allowed uses the line-level escape hatch.
func allowed(c *nvram.Chip) {
	//chipkill:allow rankwide serial unit harness, no concurrent readers
	c.InjectRetentionErrors(1)
}
