// Replication tier: a trailing band pool on every rank, a copier that
// mirrors a hot band onto a distinct rank, a telemetry-weighted policy
// choosing which bands deserve a slot, and an anti-entropy sweep that
// keeps replicas honest. The lock order is the declared //chipkill:lock
// levels (fleet.band, then the engine locks inside the read/write calls,
// then fleet.pool), enforced by the lockorder analyzer.
package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
)

// allocSlot finds a free replica slot on a live rank other than the
// primary, preferring the rank right after it so replication load
// round-robins. Returns ErrNoReplica (wrapped) when every eligible rank
// is full or dead.
func (f *Fleet) allocSlot(primaryRank int) (rk int, slot int, err error) {
	f.poolMu.Lock()
	defer f.poolMu.Unlock()
	n := len(f.ranks)
	for off := 1; off < n; off++ {
		cand := f.ranks[(primaryRank+off)%n]
		if cand.killed.Load() {
			continue
		}
		for s, band := range cand.pool {
			if band == -1 {
				cand.pool[s] = -2 // reserved; ReplicateBand fills or frees it
				return cand.idx, s, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("fleet: no free replica slot off rank %d: %w", primaryRank, ErrNoReplica)
}

func (f *Fleet) setSlot(rk, slot int, band int64) {
	f.poolMu.Lock()
	f.ranks[rk].pool[slot] = band
	f.poolMu.Unlock()
}

func (f *Fleet) freeSlot(rk, slot int) {
	f.poolMu.Lock()
	f.ranks[rk].pool[slot] = -1
	f.poolMu.Unlock()
}

// demoteBandLocked drops a band's replica (failed write-through, dead
// replica rank, divergence that cannot be healed). The slot returns to
// the pool and the band is plain unreplicated storage again —
// correctness never depended on the replica.
//
//chipkill:holds fleet.band
func (f *Fleet) demoteBandLocked(bs *bandState) {
	if bs.state.Load() == bandNone {
		return
	}
	rr, slot := int(bs.replicaRank.Load()), int(bs.replicaSlot.Load())
	bs.state.Store(bandNone)
	f.freeSlot(rr, slot)
}

// ReplicateBand mirrors one fleet band onto a replica slot of another
// rank. The band becomes write-through (syncing) before the copy starts,
// so every demand write during the copy lands on both copies; each block
// is then copied under the band mutex, which makes copier and writers
// serialise per block and leaves the replica coherent when the band goes
// active. No-op when the band is already replicated; ErrNoReplica when
// no other live rank has a free slot; ErrRankFailed when the primary is
// down (there is nothing authoritative to copy).
func (f *Fleet) ReplicateBand(band int64) error {
	if band < 0 || band >= int64(len(f.bands)) {
		return fmt.Errorf("fleet: band %d out of range [0,%d)", band, len(f.bands))
	}
	bs := &f.bands[band]
	if bs.state.Load() != bandNone {
		return nil
	}
	rk := int(band % int64(len(f.ranks)))
	n := f.ranks[rk]
	if n.killed.Load() {
		return fmt.Errorf("fleet: replicate band %d: primary rank %d down: %w", band, rk, ErrRankFailed)
	}
	rr, slot, err := f.allocSlot(rk)
	if err != nil {
		return err
	}
	f.setSlot(rr, slot, band)

	bs.mu.Lock()
	if bs.state.Load() != bandNone || n.killed.Load() {
		bs.mu.Unlock()
		f.freeSlot(rr, slot)
		return nil
	}
	bs.replicaRank.Store(int32(rr))
	bs.replicaSlot.Store(int32(slot))
	bs.state.Store(bandSyncing)
	bs.mu.Unlock()

	localBase := (band / int64(len(f.ranks))) * f.bandBlocks
	fleetBase := band * f.bandBlocks
	buf := make([]byte, f.blockBytes)
	rn := f.ranks[rr]
	for i := int64(0); i < f.bandBlocks; i++ {
		bs.mu.Lock()
		err := n.eng.ReadBlockInto(localBase+i, buf)
		if err == nil {
			err = rn.eng.WriteBlockInitial(f.replicaBlock(bs, fleetBase+i), buf)
		}
		if err != nil {
			// A block we cannot read correctly (or a replica rank that died
			// mid-copy) aborts the whole band: a partial replica must never
			// go active.
			f.demoteBandLocked(bs)
			bs.mu.Unlock()
			return fmt.Errorf("fleet: replicating band %d block %d: %w", band, i, err)
		}
		bs.mu.Unlock()
	}
	bs.mu.Lock()
	if bs.state.Load() == bandSyncing {
		bs.state.Store(bandActive)
		f.replications.Add(1)
	}
	bs.mu.Unlock()
	return nil
}

// replicateTick runs the HARP-style replication policy: per-rank decode
// telemetry (RS corrections, VLEW fallbacks, erasure repairs, DUEs since
// the last tick, exponentially decayed) weights demand heat, so the hot
// bands on the rank showing error pressure win replica slots first.
func (f *Fleet) replicateTick() {
	if f.cfg.ReplicatePerTick < 0 {
		return
	}
	for _, n := range f.ranks {
		if n.killed.Load() {
			continue
		}
		tel := n.eng.Telemetry()
		d := tel.Delta(n.prevTel)
		n.prevTel = tel
		var errs int64
		for _, ct := range d.Chips {
			errs += ct.RSCorrections + ct.VLEWFailures + ct.ErasureRepairs
		}
		errs += d.DUEs
		n.pressure = n.pressure*0.5 + float64(errs)
	}
	type cand struct {
		band  int64
		score float64
	}
	var cands []cand
	for b := range f.bands {
		bs := &f.bands[b]
		if bs.state.Load() != bandNone {
			continue
		}
		heat := f.heat.Load(b)
		if heat < f.cfg.MinReplicaHeat {
			continue
		}
		rk := b % len(f.ranks)
		if f.ranks[rk].killed.Load() {
			continue
		}
		cands = append(cands, cand{int64(b), float64(heat) * (1 + f.ranks[rk].pressure)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].band < cands[j].band
	})
	started := 0
	for _, c := range cands {
		if started >= f.cfg.ReplicatePerTick {
			break
		}
		err := f.ReplicateBand(c.band)
		if errors.Is(err, ErrNoReplica) {
			break // pool exhausted; later candidates cannot do better
		}
		if err == nil {
			started++
		}
	}
}

// verifyTick is the anti-entropy sweep: a few active bands per tick are
// compared block-for-block against their primary and healed from it on
// divergence (a replica that rots — media drift on the replica rank, or
// a campaign corrupting it on purpose — gets repaired before a failover
// could ever serve it). Bands whose replica rank died are demoted here.
func (f *Fleet) verifyTick() {
	if f.cfg.VerifyBandsPerTick < 0 || len(f.bands) == 0 {
		return
	}
	buf := make([]byte, f.blockBytes)
	rbuf := make([]byte, f.blockBytes)
	checked := 0
	for scanned := 0; scanned < len(f.bands) && checked < f.cfg.VerifyBandsPerTick; scanned++ {
		band := f.verifyCursor % int64(len(f.bands))
		f.verifyCursor++
		bs := &f.bands[band]
		if bs.state.Load() != bandActive {
			continue
		}
		checked++
		rk := int(band % int64(len(f.ranks)))
		if f.ranks[bs.replicaRank.Load()].killed.Load() {
			bs.mu.Lock()
			f.demoteBandLocked(bs)
			bs.mu.Unlock()
			continue
		}
		if f.ranks[rk].killed.Load() {
			continue // replica is the only copy; nothing to verify against
		}
		localBase := (band / int64(len(f.ranks))) * f.bandBlocks
		fleetBase := band * f.bandBlocks
		for i := int64(0); i < f.bandBlocks; i++ {
			bs.mu.Lock()
			if bs.state.Load() != bandActive {
				bs.mu.Unlock()
				break
			}
			rn := f.ranks[bs.replicaRank.Load()]
			if rn.killed.Load() {
				f.demoteBandLocked(bs)
				bs.mu.Unlock()
				break
			}
			err := f.ranks[rk].eng.ReadBlockInto(localBase+i, buf)
			if err != nil {
				bs.mu.Unlock()
				continue // primary DUE: demand-path read-repair handles it
			}
			rblock := f.replicaBlock(bs, fleetBase+i)
			if rn.eng.ReadBlockInto(rblock, rbuf) != nil || !bytes.Equal(buf, rbuf) {
				if rn.eng.WriteBlockInitial(rblock, buf) == nil {
					f.divergenceFix.Add(1)
				} else {
					f.demoteBandLocked(bs)
					bs.mu.Unlock()
					break
				}
			}
			bs.mu.Unlock()
		}
	}
}
