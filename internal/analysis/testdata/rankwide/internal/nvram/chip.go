// Package nvram is a stub of the real internal/nvram.
package nvram

type Chip struct{}

// Quiescence-class mutations (policed outside nvram/rank).
func (c *Chip) Fail()                          {}
func (c *Chip) Repair()                        {}
func (c *Chip) CloseAllRows()                  {}
func (c *Chip) InjectRetentionErrors(n int)    {}
func (c *Chip) WearOutBit(bank, row, bit int)  {}
func (c *Chip) FlipDataBit(bank, row, bit int) {}
func (c *Chip) FlipCodeBit(bank, row, bit int) {}

// CloseBankRows is bank-scoped: shardable, not policed.
func (c *Chip) CloseBankRows(bank int) {}
