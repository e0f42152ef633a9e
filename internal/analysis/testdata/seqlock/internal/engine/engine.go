// Package engine is a stub of the real internal/engine for the seqlock
// analyzer's reader rule.
package engine

import (
	"sync/atomic"

	"seqstub/internal/core"
)

type shard struct {
	seq  atomic.Uint64
	ctrl *core.Controller
}

type Engine struct{}
