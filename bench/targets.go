package main

import (
	"fmt"

	"chipkillpm/internal/core"
	"chipkillpm/internal/engine"
	"chipkillpm/internal/fleet"
	"chipkillpm/internal/rank"
)

// Engine workloads run on the geometry BENCH_runtime.json was measured
// on: 8 banks x 16 rows x 1024 B per chip, 16384 blocks, 1 MiB of data,
// one shard per bank.
const (
	engBanks       = 8
	engRowsPerBank = 16
	engRowBytes    = 1024
)

// Fleet workloads: 3 ranks of 4 banks x 16 rows x 1024 B with the default
// replica pool (a quarter of each rank's bands).
const (
	fleetRanks       = 3
	fleetBanks       = 4
	fleetRowsPerBank = 16
	fleetRowBytes    = 1024
)

// Retention-error rates: what a rank accumulates between hourly refreshes
// at runtime, and over an outage before the boot scrub (paper Sec IV).
const (
	runtimeRBER = 2e-4
	bootRBER    = 1e-3
)

// fleetWarmTicks is how many rounds of (popular reads, Fleet.Tick) the
// fleet set-up runs so the replication policy mirrors the hot bands.
const fleetWarmTicks = 50

// target is a populated stack ready for demand traffic.
type target struct {
	st  store
	sh  *shadow
	eng *engine.Engine // engine workloads
	flt *fleet.Fleet   // fleet workloads
}

func subSeed(seed uint64, tag uint64) int64 {
	return int64(splitmix64(seed^tag) >> 1)
}

func engineRankConfig(seed uint64) rank.Config {
	return rank.PaperConfig(engBanks, engRowsPerBank, engRowBytes, subSeed(seed, 0x72616e6b)) // "rank"
}

// newEngineTarget builds and fills a rank behind an engine whose OMV
// provider is the shadow; drift > 0 then ages the rank by that RBER.
func newEngineTarget(seed uint64, clients int, drift float64) (*target, error) {
	cfg := engineRankConfig(seed)
	r, err := rank.New(cfg)
	if err != nil {
		return nil, err
	}
	sh := newShadow(r.Blocks(), int64(cfg.BlocksPerRow()), clients, seed)
	eng, err := engine.New(r, engine.Config{Shards: engBanks, Core: core.DefaultConfig(), OMV: sh})
	if err != nil {
		return nil, err
	}
	if eng.BlockBytes() != blockBytes {
		return nil, fmt.Errorf("engine block size %d, checker expects %d", eng.BlockBytes(), blockBytes)
	}
	tg := &target{st: eng, sh: sh, eng: eng}
	if err := sh.fill(eng); err != nil {
		return nil, err
	}
	if drift > 0 {
		eng.Quiesce(func() { r.InjectRetentionErrors(drift) })
	}
	return tg, nil
}

func fleetConfig(seed uint64) fleet.Config {
	cfg := fleet.Config{
		Ranks: fleetRanks, Banks: fleetBanks, RowsPerBank: fleetRowsPerBank, RowBytes: fleetRowBytes,
		Seed: subSeed(seed, 0x666c656574), // "fleet"
	}
	cfg.Guard.Seed = subSeed(seed, 0x6775617264) // "guard"
	return cfg
}

// newFleetTarget builds and fills a fleet, then lets the replication
// policy see fleet_mix's popularity: fleetWarmTicks rounds of warm reads
// followed by a supervision tick, all on the calling goroutine so
// the resulting replica set is a function of the seed alone.
func newFleetTarget(seed uint64, clients int) (*target, error) {
	f, err := fleet.New(fleetConfig(seed))
	if err != nil {
		return nil, err
	}
	if f.BlockBytes() != blockBytes {
		return nil, fmt.Errorf("fleet block size %d, checker expects %d", f.BlockBytes(), blockBytes)
	}
	sh := newShadow(f.Blocks(), f.BandBlocks(), clients, seed)
	tg := &target{st: f, sh: sh, flt: f}
	if err := sh.fill(f); err != nil {
		return nil, err
	}
	streams, err := fleetMixPattern(seed, sh, f.Blocks())
	if err != nil {
		return nil, err
	}
	buf := make([]byte, blockBytes)
	pos := 0
	ring := streams[0].ring
	for t := 0; t < fleetWarmTicks; t++ {
		for i := 0; i < 256; i++ {
			if err := f.ReadBlockInto(ringBlock(ring[pos]), buf); err != nil {
				return nil, err
			}
			pos = (pos + 1) % len(ring)
		}
		if err := f.Tick(); err != nil {
			return nil, err
		}
	}
	return tg, nil
}
