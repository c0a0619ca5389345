package main

// metricSpec declares one metric: BENCHMARK.json lists exactly these
// (bench_test.go checks it), and a run may print no other.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric it should move, and where
}

// endToEnd are the metrics a user of the system would see, reported by
// every workload from its untraced run. The bounds on the three timings
// are the widest the pipeline allows, and not by choice: on the reference
// box (a 2-vCPU microVM with neighbours) ten runs of identical inputs
// spread by 5-10 % (quartile distance over median), so the issue's 10-15 %
// would have the pipeline reject the benchmark, not the program. See
// README.md, "How steady it is".
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "disk_bytes_per_visit", Unit: "B", Better: "lower", Bound: 0.02},
}

// Where a layer metric is expected to show, written down before anything
// was measured (see README.md, "How the metrics interact").
const (
	atHot    = "query_p50_ms, error_share @ http-hot"
	atCold   = "query_p50_ms, throughput_qps @ cold-bound"
	atWide   = "query_p95_ms, throughput_qps @ wide-distinct"
	atMixed  = "query_p95_ms, ingest.blast_obs_per_s @ ingest-mixed"
	atIngest = "ingest.blast_obs_per_s, ingest.recovery_s, disk_bytes_per_visit @ ingest-mixed"
	atSetup  = "setup_s everywhere"
	atNone   = "not an optimisation target: the load generator's and the tracer's own figures"
)

// perLayer are the metrics of single layers, named <module>.<metric>,
// reported by the traced run. A timing is the median of the harness-side
// span around the named public call (and its p95 where listed); a count
// comes from deltas of public counters. A metric a workload does not
// exercise reads 0 there.
var perLayer = []metricSpec{
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower", Moves: atHot},
	{Name: "serve.handler_p95_ms", Unit: "ms", Better: "lower", Moves: atHot},
	{Name: "serve.self_ms", Unit: "ms", Better: "lower", Moves: atHot},
	{Name: "serve.coalesced_share", Unit: "ratio", Better: "higher", Moves: atHot},
	{Name: "serve.rejected_share", Unit: "ratio", Better: "lower", Moves: atHot},
	{Name: "serve.response_bytes_p50", Unit: "B", Better: "lower", Moves: atHot},
	{Name: "geojson.encode_ms", Unit: "ms", Better: "lower", Moves: atHot},
	{Name: "geojson.encode_p95_ms", Unit: "ms", Better: "lower", Moves: atHot},
	{Name: "geojson.bytes_per_segment", Unit: "B", Better: "lower", Moves: atHot},
	{Name: "streach.do_ms", Unit: "ms", Better: "lower", Moves: atHot},
	{Name: "streach.do_p95_ms", Unit: "ms", Better: "lower", Moves: atHot},
	{Name: "streach.plan_hit_ratio", Unit: "ratio", Better: "higher", Moves: atHot + "; must be 0 on wide-distinct and cold-bound"},
	{Name: "streach.plan_hit_ms", Unit: "ms", Better: "lower", Moves: atHot},
	{Name: "streach.plan_miss_ms", Unit: "ms", Better: "lower", Moves: atHot},
	{Name: "streach.coalesced", Unit: "count", Better: "higher", Moves: atHot + "; 0 while no workload calls DoBatch"},
	{Name: "roadnet.snap_us", Unit: "us", Better: "lower", Moves: "query_p50_ms everywhere, small"},
	{Name: "core.plan_bound_ms", Unit: "ms", Better: "lower", Moves: atCold},
	{Name: "core.plan_bound_p95_ms", Unit: "ms", Better: "lower", Moves: atCold},
	{Name: "core.verify_ms", Unit: "ms", Better: "lower", Moves: atWide},
	{Name: "core.verify_p95_ms", Unit: "ms", Better: "lower", Moves: atWide},
	{Name: "core.result_at_ms", Unit: "ms", Better: "lower", Moves: atHot},
	{Name: "core.candidates", Unit: "count", Better: "lower", Moves: atWide},
	{Name: "core.evaluated", Unit: "count", Better: "lower", Moves: atWide},
	{Name: "core.region_segments", Unit: "count", Better: "higher", Moves: "intent guard: regions must not be trivial"},
	{Name: "core.bound_share", Unit: "ratio", Better: "lower", Moves: atCold + "; intent guard"},
	{Name: "core.verify_share", Unit: "ratio", Better: "lower", Moves: atWide + "; intent guard"},
	{Name: "conindex.row_hit_us", Unit: "us", Better: "lower", Moves: atCold},
	{Name: "conindex.row_materialise_ms", Unit: "ms", Better: "lower", Moves: atCold},
	{Name: "conindex.materialised_per_query", Unit: "count", Better: "lower", Moves: atCold},
	{Name: "conindex.hit_ratio", Unit: "ratio", Better: "higher", Moves: atCold},
	{Name: "conindex.warm_s", Unit: "s", Better: "lower", Moves: "setup_s @ wide-distinct, http-hot, ingest-mixed"},
	{Name: "stindex.timelists_range_us", Unit: "us", Better: "lower", Moves: atWide},
	{Name: "stindex.timelists_range_p95_us", Unit: "us", Better: "lower", Moves: atWide},
	{Name: "stindex.tlcache_hit_ratio", Unit: "ratio", Better: "higher", Moves: atWide},
	{Name: "stindex.tlcache_misses_per_query", Unit: "count", Better: "lower", Moves: atWide},
	{Name: "stindex.append_delta_us_per_obs", Unit: "us", Better: "lower", Moves: atMixed},
	{Name: "stindex.compact_pause_max_ms", Unit: "ms", Better: "lower", Moves: atMixed},
	{Name: "stindex.compact_keys_per_s", Unit: "1/s", Better: "higher", Moves: atMixed},
	{Name: "stindex.delta_keys_p95", Unit: "count", Better: "lower", Moves: atMixed},
	{Name: "storage.page_reads_per_query", Unit: "count", Better: "lower", Moves: atWide},
	{Name: "storage.pool_hit_ratio", Unit: "ratio", Better: "higher", Moves: atWide + "; peak_rss_mb everywhere"},
	{Name: "storage.viewpage_us", Unit: "us", Better: "lower", Moves: atWide},
	{Name: "shard.plan_ms", Unit: "ms", Better: "lower", Moves: "no end-to-end workload runs sharded yet"},
	{Name: "shard.result_at_ms", Unit: "ms", Better: "lower", Moves: "no end-to-end workload runs sharded yet"},
	{Name: "shard.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "no end-to-end workload runs sharded yet"},
	{Name: "shard.slot_fallbacks", Unit: "count", Better: "lower", Moves: "no end-to-end workload runs sharded yet"},
	{Name: "shard.mismatches", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "ingest.ack_p95_ms", Unit: "ms", Better: "lower", Moves: atIngest},
	{Name: "ingest.wal_append_us_per_update", Unit: "us", Better: "lower", Moves: atIngest},
	{Name: "ingest.apply_us_per_update", Unit: "us", Better: "lower", Moves: atIngest},
	{Name: "ingest.rejected", Unit: "count", Better: "lower", Moves: atIngest},
	{Name: "ingest.dropped", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "ingest.write_bytes_per_update", Unit: "B", Better: "lower", Moves: atIngest},
	{Name: "ingest.replay_updates_per_s", Unit: "1/s", Better: "higher", Moves: atIngest},
	{Name: "ingest.blast_obs_per_s", Unit: "1/s", Better: "higher", Moves: "end-to-end on ingest-mixed only, so not gated (see README.md)"},
	{Name: "ingest.recovery_s", Unit: "s", Better: "lower", Moves: "end-to-end on ingest-mixed only, so not gated (see README.md)"},
	{Name: "setup.simulate_s", Unit: "s", Better: "lower", Moves: atSetup},
	{Name: "setup.build_s", Unit: "s", Better: "lower", Moves: atSetup},
	{Name: "setup.save_s", Unit: "s", Better: "lower", Moves: atSetup},
	{Name: "setup.open_s", Unit: "s", Better: "lower", Moves: atSetup},
	{Name: "setup.warm_s", Unit: "s", Better: "lower", Moves: atSetup},
	{Name: "gen.sent", Unit: "count", Better: "higher", Moves: atNone},
	{Name: "gen.completed", Unit: "count", Better: "higher", Moves: atNone},
	{Name: "gen.failed", Unit: "count", Better: "lower", Moves: "error_share"},
	{Name: "gen.lag_p95_ms", Unit: "ms", Better: "lower", Moves: atNone},
	{Name: "gen.tail_ms", Unit: "ms", Better: "lower", Moves: "the latency tail beyond query_p95_ms"},
	{Name: "gen.tail_pct", Unit: "pct", Better: "higher", Moves: atNone},
	{Name: "trace.requests", Unit: "count", Better: "higher", Moves: atNone},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher", Moves: atNone},
	{Name: "trace.base_p50_ms", Unit: "ms", Better: "lower", Moves: atNone},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: atNone},
}
