package main

// workload is one named set of inputs. run performs the untraced,
// end-to-end measurement; the traced ladder (ladder.go) asks the same
// workload for its streams through pattern.
type workload struct {
	name string
	why  string
	// top names the ladder rung (by its metric) that is this workload's
	// unit of work; its single-worker figure is the base of
	// trace_overhead_pct and client_scaling.
	top string
	// drift is the RBER the engine rank is aged by before traffic starts.
	drift float64
	// onFleet selects the fleet stack as the run's top-level API.
	onFleet bool
	// pattern generates the clients' streams over a block space.
	pattern func(seed uint64, sh *shadow, blocks int64) ([]stream, error)
	// recovery is set for the recover_* workloads, which cycle a
	// recovery operation instead of running a demand loop.
	recovery *recoverySpec
}

// fleetWritePerMille is the write share of fleet_mix.
const fleetWritePerMille = 100

func fleetMixPattern(seed uint64, sh *shadow, blocks int64) ([]stream, error) {
	return mixStreams(seed, sh, blocks, fleetWritePerMille)
}

// workloads lists every workload in report order. Each layer that is
// likely to be optimised does most of the work in one of them and little
// in another, so a gain in one place that taxes another is caught.
var workloads = []workload{
	{
		name: "read_clean", top: "engine.read_ns", pattern: readStreams,
		why: "random single-block reads of a clean rank: seqlock, RS check and chip gather only; control for write-path and decoder changes",
	},
	{
		name: "read_drift", top: "engine.read_ns", pattern: readStreams, drift: runtimeRBER,
		why: "the same reads at runtime RBER 2e-4: ~11% leave the lock-free path for RS correction and a few reach the VLEW/BCH fallback",
	},
	{
		name: "write_random", top: "engine.write_ns", pattern: randomWriteStreams,
		why: "every write lands in another row, so each pays a row close and a BCH drain on all nine chips; no row-buffer locality",
	},
	{
		name: "write_rowlocal", top: "engine.write_ns", pattern: rowLocalWriteStreams,
		why: "clients stream through whole rows, so the EUR coalesces 32 writes per drain: chip XOR, RS encode and bookkeeping dominate",
	},
	{
		name: "fleet_mix", top: "fleet.read_ns", pattern: fleetMixPattern, onFleet: true,
		why: "fleet API, 90/10 read/write, Zipf(1.1) popularity, hot bands replicated, inline supervision ticks: the fleet tax and seqlock collisions",
	},
	{
		name: "recover_scrub", top: "core.scrub_ns_per_vlew", pattern: randomWriteStreams, recovery: &scrubRecovery,
		why: "cycles of RBER 1e-3 then Engine.BootScrub: BCH decode of every VLEW dominates, the demand path only verifies afterwards",
	},
	{
		name: "recover_rebuild", top: "core.rebuild_ns_per_block", pattern: randomWriteStreams, recovery: &rebuildRecovery,
		why: "cycles of one failed chip then Engine.BootScrub: scrub of the survivors plus RS erasure rebuild (re-encode for the parity chip)",
	},
	{
		name: "recover_repair", top: "fleet.repair_ns_per_block", pattern: fleetMixPattern, onFleet: true, recovery: &repairRecovery,
		why: "cycles of one failed chip then Fleet.RepairChip: byte copy from replicas where a band has one, RS erasure decode elsewhere",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// build is the workload's set-up: a filled, aged, warmed stack.
func (w *workload) build(seed uint64, clients int) (*target, error) {
	if w.onFleet {
		return newFleetTarget(seed, clients)
	}
	return newEngineTarget(seed, clients, w.drift)
}

// run performs one untraced run: repeated set-up, heap reading, then the
// closed loop or the recovery cycle, each of which ends with the full
// verification sweep.
func (w *workload) run(p plan) (*result, error) {
	clients := p.clients
	if w.recovery != nil {
		clients = 1 // one operator drives recovery; BootScrub fans out on its own
	}
	tg, setup, err := timeSetups(p.setups, func() (*target, error) { return w.build(p.seed, clients) })
	if err != nil {
		return nil, err
	}
	heap := heapInuseMiB()
	streams, err := w.pattern(p.seed, tg.sh, tg.st.Blocks())
	if err != nil {
		return nil, err
	}
	var res *result
	if w.recovery != nil {
		res, err = runRecovery(p, tg, streams[0], w.recovery)
	} else {
		res, err = runDemand(p, tg, streams)
	}
	if err != nil {
		return nil, err
	}
	res.digest = digest(tg.sh, streams, engineRankConfig(p.seed).Seed, fleetConfig(p.seed).Seed, fleetConfig(p.seed).Guard.Seed)
	res.metrics["setup_s"] = setup
	res.metrics["heap_inuse_mb"] = heap
	return res, nil
}
