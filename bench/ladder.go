package main

import (
	"fmt"
	"math/rand"
	"time"

	"chipkillpm/internal/core"
	"chipkillpm/internal/gf"
	"chipkillpm/internal/guard"
	"chipkillpm/internal/rank"
	"chipkillpm/internal/rs"
)

// The traced ladder replays one workload's generated stream against
// every rung of the stack, bottom-up, from a single goroutine: GF and
// code kernels, chip, rank, controller, engine, guard, fleet. Every rung
// is timed in bursts of burstOps calls (one span each) and summarised
// like a run — the median rate of its undisturbed bursts — so a rung's
// ns/op compares with the rung beneath it, and a layer's self time is the
// difference. Counter ratios of the core come from a fixed-count replay
// and repeat exactly for a seed; the seqlock, EUR and allocation ratios
// come from a short untraced run of the workload itself, because only C
// clients produce them.

const (
	// coreReplayReads and coreReplayWrites size the fixed-count replay.
	coreReplayReads  = 1 << 16
	coreReplayWrites = 1 << 13
	// guardTicks and fleetTicks are fixed so that the patrol's progress,
	// and with it every later counter, is a function of the seed.
	guardTicks = 200
	fleetTicks = 50
	// recoveryCycles is how many scrub, rebuild and repair cycles the
	// ladder times (one with -quick).
	recoveryCycles = 3
	// rungChunk is how much burst time a rung accumulates between two host
	// probes.
	rungChunk = 100 * time.Microsecond
	// repairRung keys the single-worker Fleet.RepairChip rung; it is the
	// top rung of recover_repair but not a reported metric of its own (the
	// per-path costs are).
	repairRung = "fleet.repair_ns_per_block"
)

type ladder struct {
	w    *workload
	seed uint64
	dur  time.Duration // per rung
	// cycles is how many scrub, rebuild and repair calls are timed.
	cycles int
	tr     *tracer
	// out holds ns per unit of work for every rung, keyed by metric name,
	// then every derived metric; plain holds the untimed passes.
	out   map[string]float64
	plain map[string]float64
}

// rung times fn in bursts for the ladder's rung duration and stores the
// ns/op of its undisturbed bursts under metric. fn(i) performs the i-th
// burst: burstOps calls. Bursts are grouped into chunks of rungChunk, each
// closed by a host probe, and selected like the chunks of a run.
func (l *ladder) rung(metric, layer, name string, fn func(i int)) {
	id := l.tr.open(0, layer, name)
	rec := newRecorder(0)
	deadline := l.tr.now() + int64(l.dur)
	var busy, ops, total int64
	for n := 0; ; n++ {
		t0 := l.tr.now()
		fn(n)
		t1 := l.tr.now()
		busy += t1 - t0
		ops += burstOps
		if n < burstSpanCap {
			l.tr.burst(id, t0, t1, burstOps)
		}
		if busy >= int64(rungChunk) || t1 >= deadline {
			rec.probe()
			rec.closeChunk(ops, busy)
			total += ops
			busy, ops = 0, 0
			if t1 >= deadline {
				break
			}
		}
	}
	l.tr.close(id, total)
	l.out[metric] = summarise([]*recorder{rec}, undisturbed).nsPerUnit
}

// untimed runs the same bursts reading the clock only once per chunk of
// about rungChunk (sized from the rung's own burst-timed figure, so both
// passes are selected alike): the base the burst-timed figure is compared
// with for bench.trace_overhead_pct, and the single-client rate behind
// engine.client_scaling.
func (l *ladder) untimed(metric string, fn func(i int)) {
	block := int(float64(rungChunk) / (l.out[metric] * burstOps))
	if block < 1 {
		block = 1
	}
	rec := newRecorder(0)
	deadline := time.Now().Add(4 * l.dur)
	for n := 0; ; {
		t0 := time.Now()
		for k := 0; k < block; k++ {
			fn(n)
			n++
		}
		t1 := time.Now()
		rec.probe()
		rec.closeChunk(int64(block)*burstOps, int64(t1.Sub(t0)))
		if !t1.Before(deadline) {
			break
		}
	}
	l.plain[metric] = summarise([]*recorder{rec}, undisturbed).nsPerUnit
}

// once times single calls of a slow operation (a tick, a scrub) and
// stores the ns per unit of work of its fastest calls under metric.
func (l *ladder) once(metric, layer, name string, calls int, fn func(i int) (units int64, err error)) error {
	id := l.tr.open(0, layer, name)
	rec := newRecorder(0)
	var total int64
	for i := 0; i < calls; i++ {
		t0 := l.tr.now()
		units, err := fn(i)
		t1 := l.tr.now()
		if err != nil {
			return fmt.Errorf("%s.%s: %w", layer, name, err)
		}
		rec.closeChunk(units, t1-t0)
		l.tr.burst(id, t0, t1, units)
		total += units
	}
	l.tr.close(id, total)
	l.out[metric] = summarise([]*recorder{rec}, fastest).nsPerUnit
	return nil
}

func (l *ladder) kernels(cfg rank.Config) {
	rng := rand.New(rand.NewSource(subSeed(l.seed, 0x6b65726e))) // "kern"
	a, b := make([]byte, blockBytes), make([]byte, blockBytes)
	rng.Read(a)
	rng.Read(b)
	l.rung("gf.xor_bytes_ns", "gf", "XORBytes", func(int) {
		for k := 0; k < burstOps; k++ {
			gf.XORBytes(a, b)
		}
	})
	mul := gf.MustField(8).MulTable(0x53)
	l.rung("gf.mul_add_bytes_ns", "gf", "MulAddBytes", func(int) {
		for k := 0; k < burstOps; k++ {
			mul.MulAddBytes(a, b)
		}
	})

	bc := cfg.VLEWCode
	vdata := make([]byte, bc.DataBytes())
	rng.Read(vdata)
	parity := bc.Encode(vdata)
	update := make([]byte, bc.ParityBytes())
	delta8 := make([]byte, cfg.ChipAccessBytes)
	rng.Read(delta8)
	slots := bc.DataBytes() / len(delta8)
	l.rung("bch.encode_delta_ns", "bch", "EncodeDeltaInto/8B", func(i int) {
		for k := 0; k < burstOps; k++ {
			bc.EncodeDeltaInto(update, delta8, ((i*burstOps+k)*7%slots)*len(delta8)*8)
		}
	})
	rowDelta := make([]byte, bc.DataBytes())
	rng.Read(rowDelta)
	l.rung("bch.encode_delta_row_ns", "bch", "EncodeDeltaInto/256B", func(int) {
		for k := 0; k < burstOps; k++ {
			bc.EncodeDeltaInto(update, rowDelta, 0)
		}
	})
	l.rung("bch.check_clean_ns", "bch", "CheckClean", func(int) {
		for k := 0; k < burstOps; k++ {
			if !bc.CheckClean(vdata, parity) {
				panic("bench: clean VLEW fails CheckClean")
			}
		}
	})
	decode := func(errs int) func(int) {
		bits := rng.Perm(bc.DataBytes() * 8)[:errs]
		return func(int) {
			for k := 0; k < burstOps; k++ {
				for _, p := range bits {
					vdata[p/8] ^= 1 << uint(p%8)
				}
				if n, err := bc.Decode(vdata, parity); err != nil || n != errs {
					panic(fmt.Sprintf("bench: BCH decode of %d errors fixed %d: %v", errs, n, err))
				}
			}
		}
	}
	l.rung("bch.decode_e2_ns", "bch", "Decode/2err", decode(2))
	l.rung("bch.decode_e22_ns", "bch", "Decode/22err", decode(bc.T()))

	rc := rs.Must(cfg.BlockBytes(), cfg.ChipAccessBytes)
	data := make([]byte, cfg.BlockBytes())
	rng.Read(data)
	check := rc.Encode(data)
	l.rung("rs.check_ns", "rs", "Check", func(int) {
		for k := 0; k < burstOps; k++ {
			if !rc.Check(data, check) {
				panic("bench: clean block fails RS check")
			}
		}
	})
	scratch := make([]byte, len(check))
	l.rung("rs.encode_ns", "rs", "EncodeInto", func(int) {
		for k := 0; k < burstOps; k++ {
			rc.EncodeInto(scratch, data)
		}
	})
	corr := make([]rs.Correction, 0, len(check))
	l.rung("rs.decode_limited_ns", "rs", "DecodeLimitedAppend/1sym", func(i int) {
		for k := 0; k < burstOps; k++ {
			data[(i+k)%len(data)] ^= 0x5a
			if c, err := rc.DecodeLimitedAppend(corr[:0], data, check, 2); err != nil || len(c) != 1 {
				panic(fmt.Sprintf("bench: RS single-symbol decode: %d corrections, %v", len(c), err))
			}
		}
	})
	erasures := make([]int, cfg.ChipAccessBytes)
	l.rung("rs.decode_erasure_ns", "rs", "DecodeAppend/8erasures", func(i int) {
		for k := 0; k < burstOps; k++ {
			chip := (i + k) % cfg.DataChips
			for j := range erasures {
				erasures[j] = chip*len(erasures) + j
				data[erasures[j]] = 0
			}
			if _, err := rc.DecodeAppend(corr[:0], data, check, erasures); err != nil {
				panic(fmt.Sprintf("bench: RS erasure decode: %v", err))
			}
		}
	})
}

// chipRungs times the chip and rank layers on a zeroed scratch rank: XOR
// deltas keep an all-zero rank's codewords valid whatever is written, and
// a raw read costs the same whatever it returns.
func (l *ladder) chipRungs(cfg rank.Config, blocks []int64) error {
	r, err := rank.New(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(subSeed(l.seed, 0x63686970))) // "chip"
	delta := make([]byte, cfg.BlockBytes())
	rng.Read(delta)
	checkDelta := rs.Must(cfg.BlockBytes(), cfg.ChipAccessBytes).Encode(delta)
	n := cfg.ChipAccessBytes
	locs := make([]rank.BlockLoc, len(blocks))
	for i, b := range blocks {
		locs[i] = r.Locate(b)
	}
	at := func(i, k int) int { return (i*burstOps + k) % len(blocks) }
	data := make([]byte, cfg.BlockBytes())
	check := make([]byte, n)

	l.rung("nvram.read_ns", "nvram", "ReadDataInto/x9", func(i int) {
		for k := 0; k < burstOps; k++ {
			loc := locs[at(i, k)]
			for c := 0; c < cfg.DataChips; c++ {
				r.Chip(c).ReadDataInto(data[c*n:(c+1)*n], loc.Bank, loc.Row, loc.Col)
			}
			r.Chip(cfg.DataChips).ReadDataInto(check, loc.Bank, loc.Row, loc.Col)
		}
	})
	vdata := make([]byte, cfg.Geometry.VLEWDataBytes)
	vcode := make([]byte, cfg.Geometry.VLEWCodeBytes)
	l.rung("nvram.read_vlew_ns", "nvram", "ReadVLEWInto", func(i int) {
		for k := 0; k < burstOps; k++ {
			loc := locs[at(i, k)]
			r.Chip(k%r.NumChips()).ReadVLEWInto(vdata, vcode, loc.Bank, loc.Row, loc.VLEWIndex(cfg.Geometry.VLEWDataBytes))
		}
	})
	writeAt := func(loc rank.BlockLoc) {
		for c := 0; c < cfg.DataChips; c++ {
			r.Chip(c).WriteXOR(loc.Bank, loc.Row, loc.Col, delta[c*n:(c+1)*n])
		}
		r.Chip(cfg.DataChips).WriteXOR(loc.Bank, loc.Row, loc.Col, checkDelta)
	}
	l.rung("nvram.write_xor_ns", "nvram", "WriteXOR/x9", func(i int) {
		for k := 0; k < burstOps; k++ {
			writeAt(locs[at(i, k)])
		}
	})
	bpr := cfg.BlocksPerRow()
	l.rung("nvram.write_xor_hit_ns", "nvram", "WriteXOR/x9/open-row", func(i int) {
		for k := 0; k < burstOps; k++ {
			writeAt(rank.BlockLoc{Col: ((i*burstOps + k) % bpr) * n})
		}
	})
	l.rung("nvram.write_xor_miss_ns", "nvram", "WriteXOR/x9/row-miss", func(i int) {
		for k := 0; k < burstOps; k++ {
			writeAt(rank.BlockLoc{Row: k & 1, Col: ((i*burstOps + k) % bpr) * n})
		}
	})

	l.rung("rank.read_raw_ns", "rank", "ReadBlockRawInto", func(i int) {
		for k := 0; k < burstOps; k++ {
			r.ReadBlockRawInto(blocks[at(i, k)], data, check)
		}
	})
	l.rung("rank.write_xor_ns", "rank", "WriteBlockXOR", func(i int) {
		for k := 0; k < burstOps; k++ {
			r.WriteBlockXOR(blocks[at(i, k)], delta, checkDelta)
		}
	})
	l.out["rank.read_self_ns"] = l.out["rank.read_raw_ns"] - l.out["nvram.read_ns"]
	l.out["rank.write_self_ns"] = l.out["rank.write_xor_ns"] - l.out["nvram.write_xor_ns"]
	return nil
}

// engineRungs times the controller, engine and guard layers on a stack
// built exactly like the workload's, then the boot-scrub paths on one
// worker.
//
//chipkill:rankwide
func (l *ladder) engineRungs(blocks []int64) error {
	tg, err := newEngineTarget(l.seed, 1, l.w.drift)
	if err != nil {
		return err
	}
	eng, sh, r := tg.eng, tg.sh, tg.eng.Rank()
	ctrl, err := core.NewController(r, core.Config{Threshold: core.DefaultConfig().Threshold, ScrubWorkers: 1}, sh)
	if err != nil {
		return err
	}
	at := func(i, k int) int64 { return blocks[(i*burstOps+k)%len(blocks)] }
	rbuf := make([]byte, blockBytes)
	wbuf := make([]byte, blockBytes)

	// Fixed-count replay, before any timed rung has written: these ratios
	// depend on the seed alone.
	for i := 0; i < coreReplayReads; i++ {
		must(ctrl.ReadBlockInto(blocks[i%len(blocks)], rbuf))
	}
	for i := 0; i < coreReplayWrites; i++ {
		must(sh.put(ctrl.WriteBlock, blocks[i%len(blocks)], wbuf))
	}
	st := ctrl.Stats()
	l.out["core.omv_hit_ratio"] = ratio(st.OMVHits, st.OMVHits+st.OMVMisses)
	l.out["core.block_fetches_per_op"] = ratio(st.BlockFetches, st.Reads+st.Writes)
	l.out["core.rs_corrected_ratio"] = ratio(st.ReadsRSCorrected, st.Reads)
	l.out["core.vlew_fallback_ratio"] = ratio(st.ReadsVLEWFallback, st.Reads)
	l.out["core.uncorrectable"] = float64(st.Uncorrectable)

	l.rung("core.read_ns", "core", "Controller.ReadBlockInto", func(i int) {
		for k := 0; k < burstOps; k++ {
			must(ctrl.ReadBlockInto(at(i, k), rbuf))
		}
	})
	l.rung("core.write_ns", "core", "Controller.WriteBlock", func(i int) {
		for k := 0; k < burstOps; k++ {
			must(sh.put(ctrl.WriteBlock, at(i, k), wbuf))
		}
	})
	readBurst := func(i int) {
		for k := 0; k < burstOps; k++ {
			must(eng.ReadBlockInto(at(i, k), rbuf))
		}
	}
	writeBurst := func(i int) {
		for k := 0; k < burstOps; k++ {
			must(sh.put(eng.WriteBlock, at(i, k), wbuf))
		}
	}
	l.rung("engine.read_ns", "engine", "Engine.ReadBlockInto", readBurst)
	l.untimed("engine.read_ns", readBurst)
	l.rung("engine.write_ns", "engine", "Engine.WriteBlock", writeBurst)
	l.untimed("engine.write_ns", writeBurst)

	ids := make([]int64, burstOps)
	slab := make([]byte, burstOps*blockBytes)
	bufs := make([][]byte, burstOps)
	for k := range bufs {
		bufs[k] = slab[k*blockBytes : (k+1)*blockBytes]
	}
	errs := make([]error, burstOps)
	l.rung("engine.batch_read_ns_per_op", "engine", "Engine.ReadBlocks/64", func(i int) {
		for k := range ids {
			ids[k] = at(i, k)
		}
		if eng.ReadBlocks(ids, bufs, errs) != 0 {
			panic("bench: batch read failed")
		}
	})
	vers := make([]uint32, burstOps)
	// The shadow is the OMV source and is only brought up to date after the
	// batch is acknowledged, so a batch must not write a block twice: the
	// second write would XOR against a stale old value.
	inBatch := make([]int, r.Blocks())
	next := 0
	l.rung("engine.batch_write_ns_per_op", "engine", "Engine.WriteBlocks/64", func(i int) {
		for k := range ids {
			b := blocks[next%len(blocks)]
			for next++; inBatch[b] == i+1; next++ {
				b = blocks[next%len(blocks)]
			}
			inBatch[b] = i + 1
			ids[k] = b
			vers[k] = sh.next(bufs[k], b)
		}
		if eng.WriteBlocks(ids, bufs, errs) != 0 {
			panic("bench: batch write failed")
		}
		for k := range ids {
			sh.ack(ids[k], vers[k], bufs[k])
		}
	})
	l.out["core.read_self_ns"] = l.out["core.read_ns"] - l.out["rank.read_raw_ns"]
	l.out["core.write_self_ns"] = l.out["core.write_ns"] - l.out["rank.write_xor_ns"]
	l.out["engine.read_self_ns"] = l.out["engine.read_ns"] - l.out["core.read_ns"]
	l.out["engine.write_self_ns"] = l.out["engine.write_ns"] - l.out["core.write_ns"]

	sup, err := guard.New(eng, guard.NewRegion(guard.RegionSizeFor(eng)), guard.Config{Seed: subSeed(l.seed, 0x6775617264)})
	if err != nil {
		return err
	}
	before := eng.Stats().ScrubCorrections
	if err := l.once("guard.tick_ns", "guard", "Supervisor.Tick", guardTicks, func(int) (int64, error) {
		return 1, sup.Tick()
	}); err != nil {
		return err
	}
	l.out["guard.patrol_corrected"] = float64(eng.Stats().ScrubCorrections - before)

	if err := l.once("core.scrub_ns_per_vlew", "core", "Controller.BootScrub", l.cycles, func(i int) (int64, error) {
		r.InjectRetentionErrors(bootRBER)
		rep := ctrl.BootScrub()
		if rep.Unrecoverable || len(rep.ChipsFailed) != 0 {
			return 0, fmt.Errorf("boot scrub: %v", rep)
		}
		if i == 0 {
			l.out["core.scrub_bits_corrected"] = float64(rep.BitsCorrected)
		}
		return rep.VLEWsScrubbed, nil
	}); err != nil {
		return err
	}
	if err := l.once("core.rebuild_ns_per_block", "core", "Controller.BootScrub/chip-failed", l.cycles, func(i int) (int64, error) {
		chip := (3 * i) % r.ParityChipIndex()
		r.InjectRetentionErrors(bootRBER)
		r.FailChip(chip)
		rep := ctrl.BootScrub()
		if rep.Unrecoverable || len(rep.ChipsRebuilt) != 1 {
			return 0, fmt.Errorf("boot scrub with chip %d failed: %v", chip, rep)
		}
		return rep.BlocksRebuilt, nil
	}); err != nil {
		return err
	}
	if t := sh.sweep(eng, rbuf, nil); t.failed != 0 {
		return fmt.Errorf("ladder left %d of %d engine blocks wrong", t.failed, t.attempted)
	}
	return nil
}

// fleetRungs times the fleet layer on a fleet built like fleet_mix's.
func (l *ladder) fleetRungs() error {
	tg, err := newFleetTarget(l.seed, 1)
	if err != nil {
		return err
	}
	f, sh := tg.flt, tg.sh
	// Read before the timed rungs add heat of their own: the replica set
	// the set-up's warm-up produced is a function of the seed.
	l.out["fleet.active_replicas"] = float64(f.Stats().ActiveReplicas)
	if err := replicateOneBandPerRank(tg); err != nil {
		return err
	}
	streams, err := l.w.pattern(l.seed, sh, f.Blocks())
	if err != nil {
		return err
	}
	var all, plainBands, mirrored []int64
	for _, e := range streams[0].ring {
		b := ringBlock(e)
		all = append(all, b)
		if f.BandReplicated(b) {
			mirrored = append(mirrored, b)
		} else {
			plainBands = append(plainBands, b)
		}
	}
	// A stream that happens to touch only one class still gets both rungs:
	// fall back to every block of the missing class.
	for b := int64(0); b < f.Blocks() && (len(mirrored) == 0 || len(plainBands) == 0); b++ {
		if f.BandReplicated(b) && len(mirrored) < ringLen {
			mirrored = append(mirrored, b)
		} else if !f.BandReplicated(b) && len(plainBands) < ringLen {
			plainBands = append(plainBands, b)
		}
	}
	rbuf := make([]byte, blockBytes)
	wbuf := make([]byte, blockBytes)
	readBurst := func(i int) {
		for k := 0; k < burstOps; k++ {
			must(f.ReadBlockInto(all[(i*burstOps+k)%len(all)], rbuf))
		}
	}
	writeBurst := func(list []int64) func(int) {
		return func(i int) {
			for k := 0; k < burstOps; k++ {
				must(sh.put(f.WriteBlock, list[(i*burstOps+k)%len(list)], wbuf))
			}
		}
	}
	l.rung("fleet.read_ns", "fleet", "Fleet.ReadBlockInto", readBurst)
	l.untimed("fleet.read_ns", readBurst)
	l.rung("fleet.write_ns", "fleet", "Fleet.WriteBlock", writeBurst(plainBands))
	l.rung("fleet.write_replicated_ns", "fleet", "Fleet.WriteBlock/replicated", writeBurst(mirrored))
	l.out["fleet.read_self_ns"] = l.out["fleet.read_ns"] - l.out["engine.read_ns"]
	l.out["fleet.write_self_ns"] = l.out["fleet.write_ns"] - l.out["engine.write_ns"]
	if err := l.once("fleet.tick_ns", "fleet", "Fleet.Tick", fleetTicks, func(int) (int64, error) {
		return 1, f.Tick()
	}); err != nil {
		return err
	}

	err = l.once(repairRung, "fleet", "Fleet.RepairChip", l.cycles, func(i int) (int64, error) {
		blocks, _, err := repairCycle(tg, i)
		return blocks, err
	})
	if err != nil {
		return err
	}
	var replicaNS, replicaBlocks, erasureNS, erasureBlocks int64
	for _, rep := range f.Repairs() {
		replicaNS += rep.ReplicaNS
		replicaBlocks += rep.ReplicaBlocks
		erasureNS += rep.ErasureNS
		erasureBlocks += rep.ErasureBlocks
	}
	l.out["fleet.repair_replica_ns_per_block"] = ratio(replicaNS, replicaBlocks)
	l.out["fleet.repair_erasure_ns_per_block"] = ratio(erasureNS, erasureBlocks)
	fs := f.Stats()
	l.out["fleet.read_repairs"] = float64(fs.ReadRepairs)
	l.out["fleet.divergence_fixes"] = float64(fs.DivergenceFixes)
	l.out["fleet.contained_dues"] = float64(fs.ContainedDUEs)
	if t := sh.sweep(f, rbuf, nil); t.failed != 0 {
		return fmt.Errorf("ladder left %d of %d fleet blocks wrong", t.failed, t.attempted)
	}
	return nil
}

// must stops the ladder on an error from a demand op: the ladder replays
// generated streams on healthy stacks, so only a bug can produce one.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: ladder op failed: %v", err))
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// clockOverhead is the cost of one time.Now/time.Since pair, which every
// sampled latency and every burst span includes once.
func clockOverhead() float64 {
	const pairs = 1 << 16
	base := time.Now()
	var sink int64
	start := time.Now()
	for i := 0; i < pairs; i++ {
		t0 := int64(time.Since(base))
		sink += int64(time.Since(base)) - t0
	}
	total := time.Since(start)
	if sink < 0 {
		panic("bench: clock went backwards")
	}
	return float64(total) / pairs
}

// traceWorkload produces the per-layer report of one workload: a short
// untraced run for the counters only C clients produce, then the ladder.
func traceWorkload(w *workload, o options, p plan) (workloadReport, error) {
	short := p
	short.setups = 1
	short.measure = p.measure / 5
	res, err := w.run(short)
	if err != nil {
		return workloadReport{}, fmt.Errorf("%s: %w", w.name, err)
	}
	l := &ladder{
		w: w, seed: o.seed, dur: p.measure / 50, cycles: recoveryCycles, tr: newTracer(w.name),
		out: map[string]float64{}, plain: map[string]float64{},
	}
	if o.quick {
		l.cycles = 1
	}
	cfg := engineRankConfig(o.seed)
	sh := newShadow(int64(cfg.Geometry.Banks)*int64(cfg.Geometry.RowsPerBank)*int64(cfg.BlocksPerRow()), int64(cfg.BlocksPerRow()), 1, o.seed)
	streams, err := w.pattern(o.seed, sh, int64(len(sh.ver)))
	if err != nil {
		return workloadReport{}, err
	}
	blocks := make([]int64, len(streams[0].ring))
	for i, e := range streams[0].ring {
		blocks[i] = ringBlock(e)
	}
	l.kernels(cfg)
	if err := l.chipRungs(cfg, blocks); err != nil {
		return workloadReport{}, fmt.Errorf("%s: chip rungs: %w", w.name, err)
	}
	if err := l.engineRungs(blocks); err != nil {
		return workloadReport{}, fmt.Errorf("%s: engine rungs: %w", w.name, err)
	}
	if err := l.fleetRungs(); err != nil {
		return workloadReport{}, fmt.Errorf("%s: fleet rungs: %w", w.name, err)
	}

	c := res.counters
	demand := c.core.Reads + c.core.Writes
	l.out["nvram.c_factor"] = c.chips.CFactor()
	l.out["nvram.row_closes_per_write"] = ratio(c.chips.RowCloses, c.chips.DataWrites)
	l.out["engine.seq_fast_ratio"] = ratio(c.seq.FastReads, c.core.Reads)
	l.out["engine.seq_retry_ratio"] = ratio(c.seq.Retries, c.core.Reads)
	l.out["engine.seq_lock_fallback_ratio"] = ratio(c.seq.LockFallbacks, c.core.Reads)
	l.out["engine.allocs_per_op"] = ratio(int64(c.allocs), demand)
	for _, m := range tails {
		l.out[m.name] = res.metrics[m.name]
	}
	l.out["bench.latency_samples"] = float64(res.samples)
	l.out["bench.undisturbed_share"] = res.undisturbed
	l.out["bench.clock_overhead_ns"] = clockOverhead()

	// The workload's top rung on one worker, with and without spans. A
	// recovery rung is one call per span, so it has no untimed twin and no
	// overhead to speak of.
	single := l.out[w.top]
	l.out["bench.trace_overhead_pct"] = 0
	if plain, ok := l.plain[w.top]; ok {
		l.out["bench.trace_overhead_pct"] = 100 * (single - plain) / plain
		single = plain
	}
	l.out["engine.client_scaling"] = res.metrics["ops_per_s"] * single / 1e9

	path, err := l.tr.write(o.traceDir)
	if err != nil {
		return workloadReport{}, fmt.Errorf("%s: writing spans: %w", w.name, err)
	}
	rep := newWorkloadReport(w, res)
	rep.Notes = []string{
		fmt.Sprintf("%d spans written to %s", len(l.tr.spans), path),
		"engine.read_self_ns is negative by design: the seqlock fast path serves clean reads without entering core",
	}
	for _, m := range perLayer {
		v, ok := l.out[m.name]
		if !ok {
			return workloadReport{}, fmt.Errorf("%s: ladder did not produce %s", w.name, m.name)
		}
		rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return rep, nil
}
