package inject

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// loadWorkers is the concurrent demand-worker count of the two *-load
// campaigns.
const loadWorkers = 4

// load is one concurrent demand phase: loadWorkers goroutines hammer
// disjoint stripes of the committed blocks through a store, one write in
// three, each checking its reads against its own shadow (or the oracle
// for blocks it has not written). The shadows merge into the oracle in
// finish.
type load struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	started sync.WaitGroup // each worker's first completed op, or its exit
	results [loadWorkers]loadResult

	// live counts workers still running; workers only leave early on an
	// error.
	live atomic.Int64
	// marked counts completed ops that began with the mark set.
	marked atomic.Int64
}

type loadResult struct {
	shadow        map[int64][]byte
	reads, writes int64 // completed ops, a legal failure included
	err           error
}

// startLoad starts the workers against store. legal, when non-nil, says
// whether a failed op is allowed (its shadow stays as it was); with nil
// every failure stops the worker. mark is read as each op begins, and
// the ops that began with it set count in marked.
func (h *Harness) startLoad(store backend, legal func(error) bool, mark *atomic.Bool) *load {
	l := &load{stop: make(chan struct{})}
	seed := campaignSeed(h.c.Name, h.c.Seed)
	l.started.Add(loadWorkers)
	for w := 0; w < loadWorkers; w++ {
		l.wg.Add(1)
		l.live.Add(1)
		go func(w int) {
			defer l.wg.Done()
			defer l.live.Add(-1)
			var first sync.Once
			defer first.Do(l.started.Done)
			res := &l.results[w]
			res.shadow = make(map[int64][]byte)
			rng := rand.New(rand.NewSource(seed + int64(w)*977 + 11))
			var owned []int64
			for i := w; i < len(h.blocks); i += loadWorkers {
				owned = append(owned, h.blocks[i])
			}
			buf := make([]byte, h.blockBytes)
			for {
				select {
				case <-l.stop:
					return
				default:
				}
				b := owned[rng.Intn(len(owned))]
				// An op that began before the mark was set may fail after
				// it, so legal re-reads the mark where the error surfaces.
				marked := mark.Load()
				if rng.Intn(3) == 0 {
					data := make([]byte, h.blockBytes)
					rng.Read(data)
					if err := store.WriteBlock(b, data); err != nil {
						if legal == nil || !legal(err) {
							res.err = fmt.Errorf("write %d: %w", b, err)
							return
						}
					} else {
						res.shadow[b] = data
					}
					res.writes++
				} else {
					if err := store.ReadBlockInto(b, buf); err != nil {
						if legal == nil || !legal(err) {
							res.err = fmt.Errorf("read %d: %w", b, err)
							return
						}
					} else {
						want, ok := res.shadow[b]
						if !ok {
							want, _ = h.oracle.Expected(b)
						}
						if !bytes.Equal(buf, want) {
							res.err = fmt.Errorf("block %d: wrong data under load", b)
							return
						}
					}
					res.reads++
				}
				if marked {
					l.marked.Add(1)
				}
				first.Do(l.started.Done)
			}
		}(w)
	}
	return l
}

// finish stops the workers, waits for them, records each worker's error
// as a failure of kind, and merges the shadows into the oracle. It
// returns the completed reads and writes.
func (l *load) finish(h *Harness, kind string) (reads, writes int64) {
	close(l.stop)
	l.wg.Wait()
	for w := range l.results {
		res := &l.results[w]
		if res.err != nil {
			h.fail(kind, -1, fmt.Sprintf("worker %d: %v", w, res.err))
		}
		for b, data := range res.shadow {
			h.oracle.Commit(b, data)
		}
		reads += res.reads
		writes += res.writes
	}
	return reads, writes
}
