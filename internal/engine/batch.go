package engine

import "fmt"

// Batch APIs. A batch is grouped by owning shard, then each shard's group
// executes as one critical section — one lock handoff amortised over the
// whole group instead of one per operation. Ordering guarantee: within a
// shard, reads execute in ascending batch-slice order; writes are stably
// row-sorted first (so same-row writes coalesce in the EUR registers)
// but same-block writes — which share a row by construction — still
// apply their later slice entry last. Across shards there is no
// ordering, matching real bank-level parallelism. The groups run in
// shard order on the caller's goroutine, which keeps the batch path
// allocation-free; concurrent callers supply the parallelism.

type batchOp uint8

const (
	opRead batchOp = iota
	opWrite
)

// plan is the pooled scratch for grouping one batch by shard.
type plan struct {
	groups [][]int32 // per shard: indices into the batch slices
}

func (e *Engine) getPlan() *plan {
	if p, ok := e.planPool.Get().(*plan); ok {
		return p
	}
	return &plan{groups: make([][]int32, len(e.shards))}
}

func (e *Engine) putPlan(p *plan) {
	for i := range p.groups {
		p.groups[i] = p.groups[i][:0]
	}
	e.planPool.Put(p)
}

// groupByShard fills the plan's per-shard index groups for blocks.
func (e *Engine) groupByShard(p *plan, blocks []int64) {
	for i, b := range blocks {
		s := e.shardOf(b)
		p.groups[s] = append(p.groups[s], int32(i))
	}
}

// ReadBlocks reads blocks[i] into into[i] for every i, preserving
// per-shard ordering. into must be the same length as blocks, each buffer
// BlockBytes() long. errs, when non-nil, must also match in length and
// receives each operation's result. Returns the number of failed reads.
func (e *Engine) ReadBlocks(blocks []int64, into [][]byte, errs []error) int {
	if len(into) != len(blocks) || (errs != nil && len(errs) != len(blocks)) {
		panic(fmt.Sprintf("engine: ReadBlocks: %d blocks, %d buffers, %d errs",
			len(blocks), len(into), len(errs)))
	}
	return e.runBatch(opRead, blocks, into, errs)
}

// WriteBlocks writes data[i] to blocks[i] for every i through the OMV-XOR
// write path, preserving per-shard ordering. Returns the number of failed
// writes; errs, when non-nil, receives each operation's result.
func (e *Engine) WriteBlocks(blocks []int64, data [][]byte, errs []error) int {
	if len(data) != len(blocks) || (errs != nil && len(errs) != len(blocks)) {
		panic(fmt.Sprintf("engine: WriteBlocks: %d blocks, %d buffers, %d errs",
			len(blocks), len(data), len(errs)))
	}
	return e.runBatch(opWrite, blocks, data, errs)
}

// runGroup executes one shard's slice of the batch. Reads go through the
// seqlock fast path per operation (each op needs its own sequence
// validation window) with a per-op locked fallback; writes open one
// writer section for the whole group — one mutex handoff and one pair of
// sequence bumps amortised over every write in the group, pipelining the
// row-close EUR drains behind a single reader stand-down window.
//
//chipkill:noalloc
func (e *Engine) runGroup(op batchOp, s *shard, idx []int32, blocks []int64, bufs [][]byte, errs []error) int {
	fails := 0
	if op == opRead {
		fastN := int64(0)
		for _, i := range idx {
			var err error
			served, corrected := false, false
			if e.seqOK {
				served, corrected = e.readFast(s, blocks[i], bufs[i])
			}
			switch {
			case corrected: // counted by readFast
			case served:
				fastN++
			default:
				s.mu.Lock()
				err = s.ctrl.ReadBlockInto(blocks[i], bufs[i])
				s.mu.Unlock()
			}
			if errs != nil {
				errs[i] = err
			}
			if err != nil {
				fails++
			}
		}
		if fastN != 0 {
			e.ctr.Add(ctrFastClean, fastN)
		}
		return fails
	}
	e.sortGroupByRow(idx, blocks)
	s.lockWrite()
	for _, i := range idx {
		err := s.ctrl.WriteBlock(blocks[i], bufs[i])
		if errs != nil {
			errs[i] = err
		}
		if err != nil {
			fails++
		}
	}
	s.unlockWrite()
	return fails
}

// sortGroupByRow stably sorts one shard group's batch indices by row so
// same-row writes land back to back: the open row's EUR registers absorb
// every delta for the row and the close-drain pays one BCH EncodeDeltaInto
// per touched VLEW for the whole run, instead of an open/drain cycle per
// interleaved write. Insertion sort keeps the path allocation-free and
// the stability preserves ascending batch-slice order within a row — in
// particular, duplicate blocks (same block, hence same row) still apply
// their later slice entry last.
//
//chipkill:noalloc
func (e *Engine) sortGroupByRow(idx []int32, blocks []int64) {
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		row := blocks[v] / e.bpr
		j := i
		for j > 0 && blocks[idx[j-1]]/e.bpr > row {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = v
	}
}

// runBatch groups the batch by shard and executes each group as one
// critical section, in shard order on the caller's goroutine.
func (e *Engine) runBatch(op batchOp, blocks []int64, bufs [][]byte, errs []error) int {
	if len(blocks) == 0 {
		return 0
	}
	p := e.getPlan()
	defer e.putPlan(p)
	e.groupByShard(p, blocks)
	fails := 0
	for si, idx := range p.groups {
		if len(idx) != 0 {
			fails += e.runGroup(op, e.shards[si], idx, blocks, bufs, errs)
		}
	}
	return fails
}
