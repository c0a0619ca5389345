package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"streach"
	"streach/internal/conindex"
	"streach/internal/core"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/shard"
	"streach/internal/stindex"
	"streach/internal/storage"
)

// counters is a snapshot of the public counters of every layer below
// the facade. Deltas over a timed phase are exact in aggregate however
// many clients ran; with one client they are exact per query too.
type counters struct {
	io  storage.IOStats
	tl  stindex.CacheStats
	con conindex.Stats
	sh  streach.SharingStats
}

func snapshot(sys *streach.System) counters {
	eng := sys.Engine()
	return counters{
		io:  eng.STIndex().Pool().Stats(),
		tl:  eng.STIndex().CacheStats(),
		con: eng.ConIndex().Stats(),
		sh:  sys.SharingStats(),
	}
}

// layerCounts turns the counter deltas of a phase that completed n
// queries into the count-derived layer metrics.
func layerCounts(before, after counters, n int) map[string]float64 {
	io := after.io.Sub(before.io)
	tl := after.tl.Sub(before.tl)
	con := after.con.Sub(before.con)
	hits := float64(after.sh.PlanCacheHits - before.sh.PlanCacheHits)
	misses := float64(after.sh.PlanCacheMisses - before.sh.PlanCacheMisses)
	q := float64(n)
	return map[string]float64{
		"streach.plan_hit_ratio":           ratio(hits, hits+misses),
		"streach.coalesced":                float64(after.sh.QueriesCoalesced - before.sh.QueriesCoalesced),
		"conindex.hit_ratio":               ratio(float64(con.Hits), float64(con.Hits+con.Materialised)),
		"conindex.materialised_per_query":  ratio(float64(con.Materialised), q),
		"stindex.tlcache_hit_ratio":        ratio(float64(tl.Hits), float64(tl.Hits+tl.Misses)),
		"stindex.tlcache_misses_per_query": ratio(float64(tl.Misses), q),
		"storage.page_reads_per_query":     ratio(float64(io.Reads), q),
		"storage.pool_hit_ratio":           ratio(float64(io.Hits), float64(io.Hits+io.Misses)),
	}
}

// genMetrics are the load generator's own figures for a timed phase.
func genMetrics(l load, wrong int) map[string]float64 {
	lat := l.latencies()
	tail := tailPercentile(len(lat))
	return map[string]float64{
		"gen.sent":       float64(len(l.Ops)),
		"gen.completed":  float64(len(lat) - wrong),
		"gen.failed":     float64(l.errors() + wrong),
		"gen.lag_p95_ms": l.lags().p(95, ms),
		"gen.tail_pct":   tail,
		"gen.tail_ms":    lat.p(tail, ms),
	}
}

// answerOfResult converts an engine result the way the facade does.
func answerOfResult(res *core.Result) *answer {
	a := &answer{Segs: make([]int32, len(res.Segments)), Probs: make([]float32, len(res.Segments))}
	for i, seg := range res.Segments {
		a.Segs[i] = int32(seg)
		if p, ok := res.Probability[seg]; ok {
			a.Probs[i] = float32(p)
		} else {
			a.Probs[i] = -1
		}
	}
	return a
}

// probeKey remembers where one traced query touched the indexes, for the
// micro-probes that follow the pass.
type probeKey struct {
	start          roadnet.SegmentID
	slotLo, slotHi int
	cands          []roadnet.SegmentID
}

// pipeline is the traced pass of the direct workloads: each query goes
// through the same public calls System.Do makes, one span per call, on
// one of two systems opened from the same directory; the other answers
// the same queries through System.Do, untraced. Same inputs, same
// order, same initial state: the two latencies differ by what tracing
// and the facade cost, and the two answers must be identical.
type pipeline struct {
	tr       *tracer
	sys, ref *streach.System

	base       durs // System.Do on ref
	mismatches int
	candidates []float64
	evaluated  []float64
	segments   []float64
	keys       []probeKey
	answers    []*answer
}

// query runs request i through the traced pipeline and through
// System.Do on the twin.
func (p *pipeline) query(i int, q query) error {
	ctx := context.Background()
	eng := p.sys.Engine()
	loc := q.Req.Locations[0]
	cq := core.Query{Location: geo.Point{Lat: loc.Lat, Lng: loc.Lng}, Start: q.Req.Start, Duration: q.Req.Duration}

	root := p.tr.start("pipeline", 0, i)
	p.tr.call("roadnet.snap", root, i, func() { p.sys.Network().SnapPoint(cq.Location) })
	var (
		plan *core.SharedPlan
		res  *core.Result
		err  error
	)
	p.tr.call("core.plan_bound", root, i, func() {
		if q.Req.Kind == streach.KindReverse {
			plan, err = eng.PlanReverse(ctx, cq, core.DeferVerification())
		} else {
			plan, err = eng.PlanReach(ctx, cq, core.DeferVerification())
		}
	})
	if err != nil {
		return fmt.Errorf("plan %d: %w", i, err)
	}
	defer plan.Close()
	positions := make([]int, len(plan.Candidates()))
	for j := range positions {
		positions[j] = j
	}
	verify := p.tr.call("core.verify", root, i, func() { err = plan.VerifyOn(ctx, eng, positions) })
	if err != nil {
		return fmt.Errorf("verify %d: %w", i, err)
	}
	plan.FinishVerification(verify)
	p.tr.call("core.result_at", root, i, func() { res, err = plan.ResultAt(ctx, q.Req.Prob) })
	if err != nil {
		return fmt.Errorf("result %d: %w", i, err)
	}
	p.tr.end(root)
	got := answerOfResult(res)

	t0 := time.Now()
	r, err := p.ref.Do(ctx, q.Req)
	if err != nil {
		return fmt.Errorf("System.Do %d: %w", i, err)
	}
	p.base = append(p.base, time.Since(t0))
	if d := got.differs(answerOf(r)); d != "" {
		p.mismatches++
	}

	p.candidates = append(p.candidates, float64(len(positions)))
	p.evaluated = append(p.evaluated, float64(res.Metrics.Evaluated))
	p.segments = append(p.segments, float64(len(res.Segments)))
	lo, hi := plan.SlotWindow()
	cands := plan.Candidates()
	if len(cands) > 8 {
		cands = cands[:8]
	}
	p.keys = append(p.keys, probeKey{start: plan.Starts()[0], slotLo: lo, slotHi: hi,
		cands: append([]roadnet.SegmentID(nil), cands...)})
	p.answers = append(p.answers, got)
	return nil
}

// metrics derives the span- and count-based layer metrics of the pass.
func (p *pipeline) metrics() map[string]float64 {
	by := byName(p.tr.spans)
	root := by["pipeline"]
	return map[string]float64{
		"roadnet.snap_us":        by["roadnet.snap"].p(50, us),
		"core.plan_bound_ms":     by["core.plan_bound"].p(50, ms),
		"core.plan_bound_p95_ms": by["core.plan_bound"].p(95, ms),
		"core.verify_ms":         by["core.verify"].p(50, ms),
		"core.verify_p95_ms":     by["core.verify"].p(95, ms),
		"core.result_at_ms":      by["core.result_at"].p(50, ms),
		"core.candidates":        median(p.candidates),
		"core.evaluated":         median(p.evaluated),
		"core.region_segments":   median(p.segments),
		"core.bound_share":       ratio(float64(by["core.plan_bound"].sum()), float64(root.sum())),
		"core.verify_share":      ratio(float64(by["core.verify"].sum()), float64(root.sum())),
		"streach.do_ms":          p.base.p(50, ms),
		"streach.do_p95_ms":      p.base.p(95, ms),
		"trace.requests":         float64(len(root)),
		"trace.coverage":         coverage(p.tr.spans),
		"trace.base_p50_ms":      p.base.p(50, ms),
		"trace.overhead_ratio":   ratio(root.p(50, ms), p.base.p(50, ms)),
	}
}

// probeLimit bounds how many of the pass's queries each micro-probe
// revisits.
const probeLimit = 64

// microProbes times single calls into the index layers on the keys the
// traced queries touched.
func microProbes(sys *streach.System, keys []probeKey, rng *rand.Rand) (map[string]float64, error) {
	ctx := context.Background()
	if len(keys) > probeLimit {
		keys = keys[:probeLimit]
	}
	con, st := sys.Engine().ConIndex(), sys.Engine().STIndex()

	// Con-Index: the row each query started from is materialised by now
	// (a hit); the same segment half a day later, outside every warmed
	// or queried slot, is not (one Dijkstra).
	var hit, cold durs
	for _, k := range keys {
		t0 := time.Now()
		if _, err := con.FarRowCtx(ctx, k.start, k.slotLo); err != nil {
			return nil, err
		}
		hit = append(hit, time.Since(t0))
		far := (k.slotLo + con.NumSlots()/2) % con.NumSlots()
		before := con.Stats().Materialised
		t0 = time.Now()
		if _, err := con.FarRowCtx(ctx, k.start, far); err != nil {
			return nil, err
		}
		if d := time.Since(t0); con.Stats().Materialised == before+1 {
			cold = append(cold, d)
		}
	}

	// ST-Index: the batched time-list fetch verification makes, on the
	// queries' own candidates and slot windows.
	var lists durs
	var dst []*stindex.TimeListBits
	for _, k := range keys {
		for _, seg := range k.cands {
			t0 := time.Now()
			var err error
			if dst, err = st.TimeListsRange(seg, k.slotLo, k.slotHi, dst[:0]); err != nil {
				return nil, err
			}
			lists = append(lists, time.Since(t0))
		}
	}

	// Storage: one page view through the buffer pool, seeded-random pages.
	var views durs
	pool := st.Pool()
	if n := pool.NumPages(); n > 0 {
		for i := 0; i < 512; i++ {
			id := storage.PageID(rng.Int63n(n))
			t0 := time.Now()
			if _, err := pool.ViewPage(id); err != nil {
				return nil, err
			}
			views = append(views, time.Since(t0))
		}
	}
	return map[string]float64{
		"conindex.row_hit_us":            hit.p(50, us),
		"conindex.row_materialise_ms":    cold.p(50, ms),
		"stindex.timelists_range_us":     lists.p(50, us),
		"stindex.timelists_range_p95_us": lists.p(95, us),
		"storage.viewpage_us":            views.p(50, us),
	}, nil
}

// shardProbeLimit is how many of wide-distinct's inputs the sharded
// probe replays.
const shardProbeLimit = 24

// shardProbe replays the first inputs of the pass on a four-shard
// cluster over the same indexes. No end-to-end workload runs sharded
// yet; this states what scatter-gather costs on these inputs, so that a
// later issue can add such a workload rather than assume.
func shardProbe(p *pipeline, qs []query) (map[string]float64, error) {
	ctx := context.Background()
	eng := p.sys.Engine()
	cluster, err := shard.NewCluster(eng.STIndex(), eng.ConIndex(), eng.Options(), 4)
	if err != nil {
		return nil, err
	}
	n := len(p.answers)
	if n > shardProbeLimit {
		n = shardProbeLimit
	}
	var plans, results durs
	mismatches := 0
	for i := 0; i < n; i++ {
		q := qs[i]
		loc := q.Req.Locations[0]
		cq := core.Query{Location: geo.Point{Lat: loc.Lat, Lng: loc.Lng}, Start: q.Req.Start, Duration: q.Req.Duration}
		t0 := time.Now()
		var pl *shard.Plan
		if q.Req.Kind == streach.KindReverse {
			pl, err = cluster.PlanReverse(ctx, cq)
		} else {
			pl, err = cluster.PlanReach(ctx, cq)
		}
		if err != nil {
			return nil, fmt.Errorf("sharded plan %d: %w", i, err)
		}
		plans = append(plans, time.Since(t0))
		t0 = time.Now()
		res, err := pl.ResultAt(ctx, q.Req.Prob)
		results = append(results, time.Since(t0))
		pl.Close()
		if err != nil {
			return nil, fmt.Errorf("sharded result %d: %w", i, err)
		}
		if answerOfResult(res).differs(p.answers[i]) != "" {
			mismatches++
		}
	}
	// The unsharded cost of the same inputs: their pipeline root spans.
	var base time.Duration
	for _, s := range p.tr.spans {
		if s.Parent == 0 && s.Request < n {
			base += s.dur()
		}
	}
	return map[string]float64{
		"shard.plan_ms":        plans.p(50, ms),
		"shard.result_at_ms":   results.p(50, ms),
		"shard.overhead_ratio": ratio(float64(plans.sum()+results.sum()), float64(base)),
		"shard.slot_fallbacks": float64(cluster.PlansSlotFallback()),
		"shard.mismatches":     float64(mismatches),
	}, nil
}

// merge copies src's entries into dst.
func merge(dst map[string]float64, srcs ...map[string]float64) map[string]float64 {
	for _, src := range srcs {
		for k, v := range src {
			dst[k] = v
		}
	}
	return dst
}
