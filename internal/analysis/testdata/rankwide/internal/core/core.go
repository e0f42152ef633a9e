// Package core is a stub of the real internal/core: the rankwide
// analyzer matches the policed methods by package-path suffix, so this
// module exercises it without importing the repo.
package core

type Controller struct{}

func (c *Controller) BootScrub() int                            { return 0 }
func (c *Controller) MigrateBand(band int) error                { return nil }
func (c *Controller) WriteBlock(block int64, data []byte) error { return nil }
func (c *Controller) DisableBlock(block int64)                  {}

// BeginMigration is a rank-wide operation, but it moves no cell: the
// seqlock-writer row does not police it.
func (c *Controller) BeginMigration(chip int, cursor int64) error { return nil }

// ReadBlockInto is demand-path: not policed.
func (c *Controller) ReadBlockInto(block int64, dst []byte) error { return nil }
