// Package use exercises the maintenance rows: rank-wide operations are
// only legal with engine.rank held or from //chipkill:rankwide functions.
package use

import (
	"rankstub/internal/core"
	"rankstub/internal/engine"
)

// demand is ordinary demand-path code: every rank-wide call here races
// the other shards' view of the layout.
func demand(e *engine.Engine, c *core.Controller) error {
	c.BootScrub()           // want `rank-wide operation rankstub/internal/core.Controller.BootScrub called without engine.rank held and outside a //chipkill:rankwide function`
	e.BootScrub()           // want `rank-wide operation rankstub/internal/engine.Engine.BootScrub called without`
	return c.MigrateBand(0) // want `rank-wide operation rankstub/internal/core.Controller.MigrateBand called without`
}

// reads is demand-path too, but only calls unpoliced operations.
func reads(e *engine.Engine, c *core.Controller, buf []byte) {
	_ = e.ReadBlockInto(0, buf)
	_ = c.ReadBlockInto(0, buf)
}

// boot runs before the engine accepts demand traffic.
//
//chipkill:rankwide
func boot(e *engine.Engine, c *core.Controller) {
	c.BootScrub()
	e.BootScrub()
}

// quiesced shows the Quiesce-literal rule: inside the literal
// engine.rank is held; the same call outside is flagged.
func quiesced(e *engine.Engine, c *core.Controller) {
	e.Quiesce(func() {
		c.BootScrub()
	})
	c.BootScrub() // want `rank-wide operation rankstub/internal/core.Controller.BootScrub called without`
}

// allowed uses the line-level escape hatch.
func allowed(c *core.Controller) {
	//chipkill:allow rankwide serial test harness, no engine running
	c.BootScrub()
}
