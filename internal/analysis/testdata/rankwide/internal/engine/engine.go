// Package engine is a stub of the real internal/engine. Its lock
// declarations mirror the real ones, so the lock graph knows where
// engine.rank is held; inside it, the seqlock-writer row also applies:
// controller mutations must follow a (*shard).lockWrite in the same
// function or run with engine.rank held.
package engine

import (
	"sync"
	"sync/atomic"

	"rankstub/internal/core"
)

type shard struct {
	//chipkill:lock engine.shard level=30 ranked
	mu   sync.Mutex
	seq  atomic.Uint64
	ctrl *core.Controller
}

//chipkill:locks engine.shard
func (s *shard) lockWrite() { s.mu.Lock(); s.seq.Add(1) }

//chipkill:unlocks engine.shard
func (s *shard) unlockWrite() { s.seq.Add(1); s.mu.Unlock() }

type Engine struct{ shards []*shard }

// Quiesce runs f with every shard writer section open (stubbed).
//
//chipkill:lock engine.rank level=20
func (e *Engine) Quiesce(f func()) { f() }

func (e *Engine) BootScrub() int                        { return 0 }
func (e *Engine) EnterDegradedMode(chip int) error      { return nil }
func (e *Engine) PatrolScrub(start, n int) (int, error) { return start, nil }

// ReadBlockInto is demand-path: not policed.
func (e *Engine) ReadBlockInto(block int64, buf []byte) error { return nil }

// write is the canonical writer section: mutator after lockWrite.
func (e *Engine) write(block int64, data []byte) error {
	s := e.shards[0]
	s.lockWrite()
	err := s.ctrl.WriteBlock(block, data)
	s.unlockWrite()
	return err
}

// bad takes the plain mutex and mutates anyway — exactly the regression
// the writer row exists for.
func (e *Engine) bad(block int64, data []byte) error {
	s := e.shards[0]
	s.mu.Lock()
	err := s.ctrl.WriteBlock(block, data) // want `seqlock-covered mutation rankstub/internal/core.Controller.WriteBlock called without engine.rank held and outside a shard writer section`
	s.mu.Unlock()
	return err
}

// badOrder has a lockWrite, but below the mutation: lexical order is the
// discipline.
func (e *Engine) badOrder(block int64) {
	s := e.shards[0]
	s.ctrl.DisableBlock(block) // want `seqlock-covered mutation rankstub/internal/core.Controller.DisableBlock called without engine.rank held`
	s.lockWrite()
	s.ctrl.DisableBlock(block)
	s.unlockWrite()
}

// scrub shows the Quiesce-literal rule; the same call outside the
// literal breaks both the maintenance and the seqlock-writer rows.
func (e *Engine) scrub() {
	e.Quiesce(func() {
		e.shards[0].ctrl.BootScrub()
	})
	e.shards[0].ctrl.BootScrub() // want `rank-wide operation rankstub/internal/core.Controller.BootScrub called without engine.rank held and outside a //chipkill:rankwide function` `seqlock-covered mutation rankstub/internal/core.Controller.BootScrub called without engine.rank held`
}

// patrol is rankwide, but the mark is no escape from the writer row: the
// mutation still needs its shard's writer section.
//
//chipkill:rankwide
func (e *Engine) patrol() {
	s := e.shards[0]
	s.ctrl.BootScrub() // want `seqlock-covered mutation rankstub/internal/core.Controller.BootScrub called without engine.rank held`
	s.lockWrite()
	s.ctrl.BootScrub()
	s.unlockWrite()
}

// read is demand-path: not policed.
func (e *Engine) read(block int64, dst []byte) error {
	s := e.shards[0]
	s.mu.Lock()
	err := s.ctrl.ReadBlockInto(block, dst)
	s.mu.Unlock()
	return err
}

// begin sets migration routing state only: the writer row does not
// police it, and the rankwide mark covers the maintenance row.
//
//chipkill:rankwide
func (e *Engine) begin(chip int) error {
	s := e.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl.BeginMigration(chip, 0)
}

// retire uses the line-level escape hatch.
func (e *Engine) retire() {
	s := e.shards[0]
	s.mu.Lock()
	//chipkill:allow rankwide boot-time call, no lock-free readers running yet
	s.ctrl.DisableBlock(0)
	s.mu.Unlock()
}
