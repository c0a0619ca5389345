package serve

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"streach"
)

// latencyBounds are the request-duration histogram bucket upper bounds in
// seconds (Prometheus `le` label values).
var latencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a dependency-free fixed-bucket latency histogram. Buckets
// store per-interval counts (cumulated at render time, as the Prometheus
// text format requires); all fields are atomics, so observation is
// lock-free under concurrent handlers.
type histogram struct {
	counts []atomic.Int64 // len(latencyBounds)+1; the last is +Inf
	sumNS  atomic.Int64
	n      atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(latencyBounds, d.Seconds())].Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

// endpoints is the fixed label set of the per-endpoint histograms,
// matching the kind strings record() uses.
var endpoints = []string{"reach", "reverse", "multi", "route", "ingest"}

// writePrometheus renders the server's metrics in the Prometheus text
// exposition format: per-endpoint latency histograms, the batch-sharing
// and coalescing counters, and every cumulative expvar counter /metrics
// already serves as JSON.
func (s *Server) writePrometheus(w io.Writer) {
	fmt.Fprint(w, "# HELP streach_request_duration_seconds Query latency by endpoint.\n")
	fmt.Fprint(w, "# TYPE streach_request_duration_seconds histogram\n")
	for _, ep := range endpoints {
		h := s.hist[ep]
		var cum int64
		for i, b := range latencyBounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "streach_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, strconv.FormatFloat(b, 'g', -1, 64), cum)
		}
		cum += h.counts[len(latencyBounds)].Load()
		fmt.Fprintf(w, "streach_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(w, "streach_request_duration_seconds_sum{endpoint=%q} %g\n", ep, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "streach_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.n.Load())
	}

	sh := s.sys.SharingStats()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("streach_batch_groups_total",
		"DoBatch request groups that shared one plan.", sh.BatchGroups)
	counter("streach_batch_queries_coalesced_total",
		"Batch queries answered from another query's plan.", sh.QueriesCoalesced)
	counter("streach_batch_probe_sets_shared_total",
		"Probe start-set materialisations avoided by batch sharing.", sh.ProbeSetsShared)
	counter("streach_batch_con_rows_shared_total",
		"Con-Index row resolutions avoided by batch sharing.", sh.ConRowsShared)
	counter("streach_plan_cache_hits_total",
		"Queries answered from a cached cross-batch shared plan.", sh.PlanCacheHits)
	counter("streach_plan_cache_misses_total",
		"Plan-cache lookups that built a fresh plan.", sh.PlanCacheMisses)
	// Gauge aliases of the plan-cache counters plus the warm-plan count:
	// dashboards graphing cache effectiveness alongside the warm pipeline
	// read all three from one family.
	planGauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	planGauge("streach_plan_cache_hits",
		"Queries answered from a cached cross-batch shared plan.", sh.PlanCacheHits)
	planGauge("streach_plan_cache_misses",
		"Plan-cache lookups that built a fresh plan.", sh.PlanCacheMisses)
	planGauge("streach_plans_warmed",
		"Plans built proactively by the warm-plan pipeline (neither hits nor misses).", sh.PlansWarmed)

	// Sharded execution: one gauge/counter set per shard, labelled by
	// ordinal, so a scrape shows partition balance and where the
	// scatter-gather work actually lands. Absent on unsharded systems.
	if shards := s.sys.ShardStats(); len(shards) > 0 {
		fmt.Fprintf(w, "# HELP streach_shards Shard count of the sharded execution layer.\n")
		fmt.Fprintf(w, "# TYPE streach_shards gauge\nstreach_shards %d\n", len(shards))
		shardMetric := func(name, help, typ string, value func(streach.ShardStat) float64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			for _, st := range shards {
				fmt.Fprintf(w, "%s{shard=\"%d\"} %g\n", name, st.Shard, value(st))
			}
		}
		shardMetric("streach_shard_segments",
			"Road segments owned by the shard's partition.", "gauge",
			func(st streach.ShardStat) float64 { return float64(st.Segments) })
		shardMetric("streach_shard_boundary_segments",
			"Owned segments bordering another shard (replicated metadata).", "gauge",
			func(st streach.ShardStat) float64 { return float64(st.BoundarySegments) })
		shardMetric("streach_shard_con_rows_total",
			"Con-Index adjacency rows routed through the shard's slice.", "counter",
			func(st streach.ShardStat) float64 { return float64(st.RowsFetched) })
		shardMetric("streach_shard_candidates_verified_total",
			"Candidates scatter-verified on the shard's ST-Index slice.", "counter",
			func(st streach.ShardStat) float64 { return float64(st.CandidatesVerified) })
		shardMetric("streach_shard_verify_seconds_total",
			"Wall-clock the shard spent in scatter verification.", "counter",
			func(st streach.ShardStat) float64 { return st.Verify.Seconds() })
	}

	// Live ingestion: the index epoch, the delta layer's depth, and the
	// compaction history, so a dashboard sees delta depth grow between
	// compactions and the epoch step when one lands. Always rendered —
	// a frozen system just shows epoch 0 and an empty delta.
	ist := s.sys.IngestStats()
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("streach_index_epoch",
		"ST-Index epoch, bumped once per delta compaction.", float64(ist.Epoch))
	gauge("streach_index_data_version",
		"Live data version, bumped per ingest append batch and compaction.", float64(ist.DataVersion))
	gauge("streach_ingest_delta_dirty_keys",
		"(segment, slot) keys holding uncompacted delta observations.", float64(ist.DirtyKeys))
	gauge("streach_ingest_delta_pending_obs",
		"Delta observations not yet folded by a compaction.", float64(ist.PendingObs))
	gauge("streach_ingest_queue_len",
		"Updates waiting in the ingest queue.", float64(ist.QueueLen))
	gauge("streach_ingest_pending_speed_samples",
		"Con-Index speed samples buffered for the next fold (flush/compaction/cap).",
		float64(ist.PendingSpeedSamples))
	counter("streach_ingest_applied_total",
		"Live updates folded into the indexes.", ist.Applied)
	counter("streach_ingest_dropped_total",
		"Live updates rejected during apply (out-of-range fields).", ist.Dropped)
	counter("streach_ingest_backpressure_total",
		"Live updates refused at the queue (backpressure).", ist.Rejected)
	counter("streach_ingest_wal_errors_total",
		"WAL append failures (updates stayed live but not durable).", ist.WALErrors)
	degraded := 0.0
	if ist.DurabilityDegraded {
		degraded = 1
	}
	gauge("streach_durability_degraded",
		"1 while WAL appends are failing: accepted updates are live but not crash-durable.", degraded)
	gauge("streach_ingest_wal_segments",
		"Live WAL segment files awaiting retirement by a durable compaction.", float64(ist.WALSegments))
	counter("streach_ingest_compactions_total",
		"Delta compactions installed.", int64(ist.Compactions))
	counter("streach_ingest_background_compactions_total",
		"Incremental compaction cycles run by the background loop.", ist.BackgroundCompactions)
	counter("streach_ingest_background_compact_errors_total",
		"Background compaction cycles that failed (retried with backoff).", ist.BackgroundCompactErrs)
	gauge("streach_ingest_last_compact_pause_seconds",
		"Handle-table install pause of the last compaction.", ist.LastCompactPause.Seconds())

	// Adaptive admission: the live limit and occupancy, so dashboards see
	// the brownout ladder move before clients see 429s.
	if s.lim != nil {
		limit, inflight := s.lim.snapshot()
		fmt.Fprintf(w, "# HELP streach_admission_limit Current AIMD admission limit.\n")
		fmt.Fprintf(w, "# TYPE streach_admission_limit gauge\nstreach_admission_limit %g\n", limit)
		fmt.Fprintf(w, "# HELP streach_admission_inflight Admitted requests currently in flight.\n")
		fmt.Fprintf(w, "# TYPE streach_admission_inflight gauge\nstreach_admission_inflight %d\n", inflight)
	}

	// The cumulative expvar counters, one Prometheus counter each.
	var names []string
	vals := map[string]int64{}
	s.vars.Do(func(kv expvar.KeyValue) {
		if iv, ok := kv.Value.(*expvar.Int); ok {
			names = append(names, kv.Key)
			vals[kv.Key] = iv.Value()
		}
	})
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE streach_%s counter\nstreach_%s %d\n", name, name, vals[name])
	}
}
