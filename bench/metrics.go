package main

// metricDef names one reported number. The names are the ruler later
// changes are measured with, so they are fixed here, in BENCHMARK.json
// and in README.md together; TestBenchmarkJSONMatches keeps the first two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees, reported by every workload
// from its untraced run and gated by the bounds in BENCHMARK.json.
// ops_per_s counts the workload's own unit of work: demand ops for the
// five demand workloads, VLEWs scrubbed for recover_scrub, blocks rebuilt
// for recover_rebuild, blocks repaired for recover_repair.
//
// The p99 tails are measured by the same run but listed with the
// per-layer metrics, which carry no bound: with two clients on eight
// shard mutexes one to five per cent of writes park, a parked goroutine
// costs 50-150 us to wake on a virtual CPU, and so p99 sits on the edge
// between two modes and moved by 15-60 % between runs of the same commit
// on the authoring host — more than the largest bound a gated metric may
// have.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_inuse_mb", "MiB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"read_p50_ns", "ns", "lower"},
	{"write_p50_ns", "ns", "lower"},
}

// tails are the ungated latency tails of the untraced run.
var tails = []metricDef{
	{"read_p99_ns", "ns", "lower"},
	{"write_p99_ns", "ns", "lower"},
}

// perLayer is the traced ladder, bottom-up. A *_self_ns metric is its
// rung minus the rung beneath it on the same stream and may be negative
// where a layer bypasses the one below (the engine's seqlock fast path
// never enters core).
var perLayer = []metricDef{
	{"read_p99_ns", "ns", "lower"},
	{"write_p99_ns", "ns", "lower"},

	{"gf.xor_bytes_ns", "ns", "lower"},
	{"gf.mul_add_bytes_ns", "ns", "lower"},

	{"bch.encode_delta_ns", "ns", "lower"},
	{"bch.encode_delta_row_ns", "ns", "lower"},
	{"bch.check_clean_ns", "ns", "lower"},
	{"bch.decode_e2_ns", "ns", "lower"},
	{"bch.decode_e22_ns", "ns", "lower"},

	{"rs.check_ns", "ns", "lower"},
	{"rs.encode_ns", "ns", "lower"},
	{"rs.decode_limited_ns", "ns", "lower"},
	{"rs.decode_erasure_ns", "ns", "lower"},

	{"nvram.read_ns", "ns", "lower"},
	{"nvram.read_vlew_ns", "ns", "lower"},
	{"nvram.write_xor_ns", "ns", "lower"},
	{"nvram.write_xor_hit_ns", "ns", "lower"},
	{"nvram.write_xor_miss_ns", "ns", "lower"},
	{"nvram.c_factor", "ratio", "lower"},
	{"nvram.row_closes_per_write", "ratio", "lower"},

	{"rank.read_raw_ns", "ns", "lower"},
	{"rank.read_self_ns", "ns", "lower"},
	{"rank.write_xor_ns", "ns", "lower"},
	{"rank.write_self_ns", "ns", "lower"},

	{"core.read_ns", "ns", "lower"},
	{"core.read_self_ns", "ns", "lower"},
	{"core.write_ns", "ns", "lower"},
	{"core.write_self_ns", "ns", "lower"},
	{"core.omv_hit_ratio", "ratio", "higher"},
	{"core.block_fetches_per_op", "ratio", "lower"},
	{"core.rs_corrected_ratio", "ratio", "lower"},
	{"core.vlew_fallback_ratio", "ratio", "lower"},
	{"core.uncorrectable", "count", "lower"},
	{"core.scrub_ns_per_vlew", "ns", "lower"},
	{"core.rebuild_ns_per_block", "ns", "lower"},
	{"core.scrub_bits_corrected", "count", "higher"},

	{"engine.read_ns", "ns", "lower"},
	{"engine.read_self_ns", "ns", "lower"},
	{"engine.write_ns", "ns", "lower"},
	{"engine.write_self_ns", "ns", "lower"},
	{"engine.batch_read_ns_per_op", "ns", "lower"},
	{"engine.batch_write_ns_per_op", "ns", "lower"},
	{"engine.seq_fast_ratio", "ratio", "higher"},
	{"engine.seq_retry_ratio", "ratio", "lower"},
	{"engine.seq_lock_fallback_ratio", "ratio", "lower"},
	{"engine.allocs_per_op", "ratio", "lower"},
	{"engine.client_scaling", "ratio", "higher"},

	{"guard.tick_ns", "ns", "lower"},
	{"guard.patrol_corrected", "count", "higher"},

	{"fleet.read_ns", "ns", "lower"},
	{"fleet.read_self_ns", "ns", "lower"},
	{"fleet.write_ns", "ns", "lower"},
	{"fleet.write_replicated_ns", "ns", "lower"},
	{"fleet.write_self_ns", "ns", "lower"},
	{"fleet.tick_ns", "ns", "lower"},
	{"fleet.active_replicas", "count", "higher"},
	{"fleet.read_repairs", "count", "lower"},
	{"fleet.divergence_fixes", "count", "lower"},
	{"fleet.contained_dues", "count", "lower"},
	{"fleet.repair_replica_ns_per_block", "ns", "lower"},
	{"fleet.repair_erasure_ns_per_block", "ns", "lower"},

	{"bench.clock_overhead_ns", "ns", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.latency_samples", "count", "higher"},
	{"bench.undisturbed_share", "ratio", "higher"},
}
