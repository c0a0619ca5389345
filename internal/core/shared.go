package core

import (
	"context"
	"sort"
	"time"

	"streach/internal/conindex"
	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/storage"
	"streach/internal/xerr"
)

// SharedPlan is the probability-threshold-independent part of one query
// execution: the snapped start set, the bounding regions, the materialised
// probe start-sets, and the empirical reachability probability of every
// verification candidate. Everything a query computes except the final
// threshold comparison depends only on (start segments, start slot,
// window, algorithm) — the probability of a segment is a property of the
// historical data, not of the query's Prob — so a batch of queries that
// differ only in Prob can share one plan and resolve their thresholds
// from the shared per-candidate probability map.
//
// A plan and ResultAt(prob) are the only way the engine answers a query:
// a single query is a plan read once, so shared and independent execution
// are bit-identical by construction rather than by parallel maintenance
// of two pipelines.
//
// A SharedPlan is owned by one goroutine: Close releases its pooled
// bounding regions, and neither ResultAt nor Close is safe to call
// concurrently. (The expensive phases inside plan construction still
// parallelise internally via the verification worker pool.)
type SharedPlan struct {
	e    *Engine
	kind planKind

	// Cost-attribution snapshots from plan-construction time. Every
	// ResultAt diffs against these, so under sharing each member query
	// reports the group's cumulative IO/cache activity — the same
	// "approximate under concurrency" semantics the counters already have.
	// rows0 is the exception: the row source's counters are the plan's
	// own, so the Con-Index figures are exact.
	began time.Time
	io0   storage.IOStats
	tl0   stindex.CacheStats
	rows0 conindex.PinStats

	// rows resolves the bounding phase's Con-Index adjacency rows: a
	// batch-scoped pin by default, a shard-routing source on a cluster's
	// planner engine.
	rows   RowSource
	starts []roadnet.SegmentID

	// slotLo, slotHi is the query window's slot range, recorded at plan
	// time so that a caller can replay the plan's index reads (see
	// SlotWindow).
	slotLo, slotHi int

	maxReg, minReg *region
	// keep is Bmax ∩ Bmin: admitted without verification under the
	// default trace-back policy.
	keep []roadnet.SegmentID
	// order holds the verification candidates — in ascending segment ID
	// under the default policy (page order for the matchers), in region
	// or expansion order under VerifyAll and the exhaustive baseline —
	// and probs their empirical probabilities (the eager modes).
	order []roadnet.SegmentID
	probs []float64

	// EarlyStop support: which segments the wave probes depends on the
	// threshold, so verification is lazy — memoised per segment, which is
	// exact because probabilities are threshold-independent.
	lazy bool
	memo map[roadnet.SegmentID]float64
	wave *probeWorker

	// pr is the plan's probe: the forward one for reach and multi plans,
	// the reverse one (newReverseProbe) for reverse plans.
	pr *probe

	boundNS, verifyNS int64
	maxSize, minSize  int
	evalFixed         int

	// children are the per-location plans of the sequential m-query
	// baseline.
	children []*SharedPlan

	// deferred marks a plan built with DeferVerification: candidates are
	// ordered but unverified until VerifyOn calls cover every position
	// and FinishVerification seals the plan. verified flips when sealing.
	deferred bool
	verified bool

	closed bool
}

// PlanOption tunes plan construction.
type PlanOption func(*planConfig)

type planConfig struct {
	deferVerify bool
}

// DeferVerification builds the plan without verifying its candidates:
// the bounding regions, probe start-sets, and candidate order are
// computed as usual, but the per-candidate probabilities stay zero until
// VerifyOn fills them in — the scatter step of sharded execution, where
// each shard verifies the candidates it owns on its own index slice.
// ResultAt refuses a deferred plan until FinishVerification seals it.
// Plans under the EarlyStop policy verify lazily per threshold and
// ignore this option.
func DeferVerification() PlanOption {
	return func(c *planConfig) { c.deferVerify = true }
}

func resolvePlanConfig(opts []PlanOption) planConfig {
	var c planConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// planKind selects the execution shape of a SharedPlan.
type planKind int

const (
	// planBounded is the two-phase pipeline: bounding regions + trace
	// back verification (SQMB, reverse SQMB, MQMB).
	planBounded planKind = iota
	// planExhaustive is the worst-case-radius expansion baseline (ES,
	// reverse ES); every expanded segment is pre-verified.
	planExhaustive
	// planSequential unions one child plan per location (the m-query
	// baseline of §4.3).
	planSequential
)

func (e *Engine) newSharedPlan(kind planKind) *SharedPlan {
	return &SharedPlan{
		e:     e,
		kind:  kind,
		began: now(),
		io0:   e.st.Pool().Stats(),
		tl0:   e.st.CacheStats(),
		rows:  e.newRowSource(),
	}
}

// PlanReach runs the threshold-independent part of an s-query with the
// paper's two-step pipeline: maximum/minimum bounding region search via
// the Con-Index (SQMB), then the candidates the trace back search (TBS)
// verifies. q.Prob is ignored; pass it to ResultAt.
func (e *Engine) PlanReach(ctx context.Context, q Query, opts ...PlanOption) (*SharedPlan, error) {
	if err := validateWindow(q.Start, q.Duration); err != nil {
		return nil, err
	}
	r0, ok := e.st.SnapLocation(q.Location)
	if !ok {
		return nil, xerr.Markf(xerr.KindInvalid, "core: no road segment near %v", q.Location)
	}
	p := e.newSharedPlan(planBounded)
	p.starts = []roadnet.SegmentID{r0}
	if err := p.boundForward(ctx, q.Start, q.Duration, false, resolvePlanConfig(opts)); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// PlanMulti runs the threshold-independent part of an m-query with the
// m-query maximum bounding region search (MQMB, Algorithm 3) followed by
// one trace back search over the unified region. Compared with running
// SQMB once per location, segments in overlapping bounding regions are
// attributed to their nearest start location and expanded only once.
func (e *Engine) PlanMulti(ctx context.Context, q MultiQuery, opts ...PlanOption) (*SharedPlan, error) {
	if err := validateWindow(q.Start, q.Duration); err != nil {
		return nil, err
	}
	if len(q.Locations) == 0 {
		return nil, xerr.Markf(xerr.KindInvalid, "core: m-query needs at least one location")
	}
	starts := make([]roadnet.SegmentID, 0, len(q.Locations))
	seen := map[roadnet.SegmentID]bool{}
	for _, loc := range q.Locations {
		r0, ok := e.st.SnapLocation(loc)
		if !ok {
			return nil, xerr.Markf(xerr.KindInvalid, "core: no road segment near %v", loc)
		}
		if !seen[r0] {
			seen[r0] = true
			starts = append(starts, r0)
		}
	}
	p := e.newSharedPlan(planBounded)
	p.starts = starts
	if err := p.boundForward(ctx, q.Start, q.Duration, true, resolvePlanConfig(opts)); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// PlanMultiSequential answers an m-query the naive way (§3.3.2), the
// baseline MQMB is compared against in Fig 4.8: one PlanReach per
// location (duplicates included), results unioned.
func (e *Engine) PlanMultiSequential(ctx context.Context, q MultiQuery, opts ...PlanOption) (*SharedPlan, error) {
	if err := validateWindow(q.Start, q.Duration); err != nil {
		return nil, err
	}
	if len(q.Locations) == 0 {
		return nil, xerr.Markf(xerr.KindInvalid, "core: m-query needs at least one location")
	}
	cfg := resolvePlanConfig(opts)
	p := e.newSharedPlan(planSequential)
	p.deferred = cfg.deferVerify
	p.slotLo, p.slotHi = e.slotWindow(q.Start, q.Duration)
	for _, loc := range q.Locations {
		child, err := e.PlanReach(ctx, Query{Location: loc, Start: q.Start, Duration: q.Duration}, opts...)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.children = append(p.children, child)
	}
	// A sequential plan is deferred only while some child still is (an
	// EarlyStop child verifies lazily and ignores the deferral).
	if p.deferred {
		p.deferred = false
		for _, c := range p.children {
			if c.deferred {
				p.deferred = true
			}
		}
	}
	return p, nil
}

// PlanReverse runs the threshold-independent part of a reverse s-query:
// reverse maximum/minimum bounding regions from the reverse connection
// tables (boundingRegionPin with the reverse kinds), then the candidates
// a trace back verification between them checks.
func (e *Engine) PlanReverse(ctx context.Context, q Query, opts ...PlanOption) (*SharedPlan, error) {
	if err := validateWindow(q.Start, q.Duration); err != nil {
		return nil, err
	}
	dst, ok := e.st.SnapLocation(q.Location)
	if !ok {
		return nil, xerr.Markf(xerr.KindInvalid, "core: no road segment near %v", q.Location)
	}
	cfg := resolvePlanConfig(opts)
	p := e.newSharedPlan(planBounded)
	p.starts = []roadnet.SegmentID{dst}

	tBound := now()
	maxReg, err := e.boundingRegionPin(ctx, p.rows, conindex.FarReverse, p.starts, q.Start, q.Duration)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.maxReg = maxReg
	minReg, err := e.boundingRegionPin(ctx, p.rows, conindex.NearReverse, p.starts, q.Start, q.Duration)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.minReg = minReg
	p.boundNS = now().Sub(tBound).Nanoseconds()
	p.maxSize, p.minSize = maxReg.size(), minReg.size()

	tVerify := now()
	lo, hi := e.slotWindow(q.Start, q.Duration)
	p.slotLo, p.slotHi = lo, hi
	p.pr, err = e.newReverseProbe(ctx, dst, lo, lo, hi)
	if err != nil {
		p.Close()
		return nil, err
	}
	// The reverse pipeline has no EarlyStop wave: candidates are either
	// Bmax \ Bmin (default) or all of Bmax (VerifyAll), verified on the
	// shared read-only probe.
	if e.opts.VerifyAll {
		p.order = append([]roadnet.SegmentID(nil), maxReg.segs...)
	} else {
		p.order = make([]roadnet.SegmentID, 0, maxReg.size())
		p.keep = make([]roadnet.SegmentID, 0, minReg.size())
		maxReg.splitAgainst(minReg,
			func(s roadnet.SegmentID) { p.keep = append(p.keep, s) },
			func(s roadnet.SegmentID) { p.order = append(p.order, s) })
	}
	p.evalFixed = len(p.order)
	if cfg.deferVerify {
		p.deferred = true
		p.probs = make([]float64, len(p.order))
		p.verifyNS = now().Sub(tVerify).Nanoseconds()
		return p, nil
	}
	p.probs, err = e.verifyMany(ctx, p.order, func() func(roadnet.SegmentID) (float64, error) {
		return p.pr.worker().prob
	})
	if err != nil {
		p.Close()
		return nil, err
	}
	p.verifyNS = now().Sub(tVerify).Nanoseconds()
	return p, nil
}

// PlanReachES runs the threshold-independent part of the exhaustive
// search baseline (§4.1).
//
// Without the Con-Index, the baseline has no data-driven bound on how far
// traffic can travel in L, so it falls back to the conservative network
// expansion of [21]: expand the road network from the start segment out
// to the worst-case radius (free-flow speed of the fastest road class
// times L), and verify the reachability probability of every expanded
// segment against the on-disk time lists. The search "terminates until
// Prob-reachable road segments at all possible branches" — i.e. it is
// exhaustive within the worst-case reach, which is what makes it pay
// 2–10x the disk reads of SQMB+TBS.
func (e *Engine) PlanReachES(ctx context.Context, q Query, opts ...PlanOption) (*SharedPlan, error) {
	return e.planES(ctx, q, roadnet.Forward, opts)
}

// PlanReverseES is PlanReachES over the reverse expansion and probe.
func (e *Engine) PlanReverseES(ctx context.Context, q Query, opts ...PlanOption) (*SharedPlan, error) {
	return e.planES(ctx, q, roadnet.Backward, opts)
}

// planES expands from the snapped location in direction dir out to the
// worst-case radius in metres and verifies every segment it reaches.
// Forward, the start segment costs its own length (it is driven end to
// end); Backward, the destination costs nothing (it is reached on entry).
func (e *Engine) planES(ctx context.Context, q Query, dir roadnet.Direction, opts []PlanOption) (*SharedPlan, error) {
	if err := validateWindow(q.Start, q.Duration); err != nil {
		return nil, err
	}
	r0, ok := e.st.SnapLocation(q.Location)
	if !ok {
		return nil, xerr.Markf(xerr.KindInvalid, "core: no road segment near %v", q.Location)
	}
	cfg := resolvePlanConfig(opts)
	p := e.newSharedPlan(planExhaustive)
	p.starts = []roadnet.SegmentID{r0}
	lo, hi := e.slotWindow(q.Start, q.Duration)
	p.slotLo, p.slotHi = lo, hi
	weight := e.net.DistanceWeight()
	src := roadnet.Source{Seg: r0}
	var err error
	if dir == roadnet.Forward {
		src.Cost = weight(r0)
		p.pr, err = e.newProbe(ctx, p.starts, lo, lo, hi)
	} else {
		p.pr, err = e.newReverseProbe(ctx, r0, lo, lo, hi)
	}
	if err != nil {
		p.Close()
		return nil, err
	}
	w := p.pr.worker()
	budget := q.Duration.Seconds() * roadnet.Highway.FreeFlowSpeed()
	var expandErr error
	e.net.Search(dir, []roadnet.Source{src}, budget, weight, func(r roadnet.SegmentID, _ float64, _ int) roadnet.Step {
		if expandErr = ctx.Err(); expandErr != nil {
			return roadnet.Stop
		}
		// The expansion is probability-independent (it is bounded by the
		// worst-case radius alone), so a deferred plan collects the
		// candidate order here and verifies later on the shard engines.
		if !cfg.deferVerify {
			var pv float64
			if pv, expandErr = w.prob(r); expandErr != nil {
				return roadnet.Stop
			}
			p.probs = append(p.probs, pv)
		}
		p.order = append(p.order, r)
		return roadnet.Continue
	})
	if expandErr != nil {
		p.Close()
		return nil, expandErr
	}
	p.evalFixed = len(p.order)
	if cfg.deferVerify {
		p.deferred = true
		p.probs = make([]float64, len(p.order))
	}
	return p, nil
}

// boundForward grows the forward bounding regions (SQMB or, with
// unified=true, MQMB's Algorithm 3), builds the probe start-sets, and —
// except under EarlyStop or a deferred plan — verifies every trace-back
// candidate once.
func (p *SharedPlan) boundForward(ctx context.Context, start, dur time.Duration, unified bool, cfg planConfig) error {
	e := p.e
	grow := func(kind conindex.Kind) (*region, error) {
		if unified {
			return e.unifiedRegionPin(ctx, p.rows, kind, p.starts, start, dur)
		}
		return e.boundingRegionPin(ctx, p.rows, kind, p.starts, start, dur)
	}
	tBound := now()
	maxReg, err := grow(conindex.Far)
	if err != nil {
		return err
	}
	p.maxReg = maxReg
	minReg, err := grow(conindex.Near)
	if err != nil {
		return err
	}
	p.minReg = minReg
	p.boundNS = now().Sub(tBound).Nanoseconds()
	p.maxSize, p.minSize = maxReg.size(), minReg.size()

	tVerify := now()
	lo, hi := e.slotWindow(start, dur)
	p.slotLo, p.slotHi = lo, hi
	p.pr, err = e.newProbe(ctx, p.starts, lo, lo, hi)
	if err != nil {
		return err
	}
	if e.opts.EarlyStop {
		// Lazy: the wave runs per ResultAt with memoised probabilities.
		p.lazy = true
		p.memo = map[roadnet.SegmentID]float64{}
		p.wave = p.pr.worker()
		p.verifyNS = now().Sub(tVerify).Nanoseconds()
		return nil
	}
	if e.opts.VerifyAll {
		p.order = append([]roadnet.SegmentID(nil), maxReg.segs...)
	} else {
		// Verify Bmax \ Bmin, admit Bmax ∩ Bmin unverified. Both sets come
		// from word-level bitset ops on the regions, in ascending ID
		// order. Every candidate is verified whatever the threshold, so
		// the trace back's outer-to-inner order (which only the EarlyStop
		// wave acts on) buys nothing here, while ascending IDs walk each
		// slot's time lists front to back: neighbouring candidates share
		// pages, and a worker's page memo sees each page once.
		p.order = make([]roadnet.SegmentID, 0, maxReg.size())
		p.keep = make([]roadnet.SegmentID, 0, minReg.size())
		maxReg.splitAgainst(minReg,
			func(s roadnet.SegmentID) { p.keep = append(p.keep, s) },
			func(s roadnet.SegmentID) { p.order = append(p.order, s) })
	}
	p.evalFixed = len(p.order)
	if cfg.deferVerify {
		p.deferred = true
		p.probs = make([]float64, len(p.order))
		p.verifyNS = now().Sub(tVerify).Nanoseconds()
		return nil
	}
	p.probs, err = e.verifyMany(ctx, p.order, func() func(roadnet.SegmentID) (float64, error) {
		return p.pr.worker().prob
	})
	if err != nil {
		return err
	}
	p.verifyNS = now().Sub(tVerify).Nanoseconds()
	return nil
}

// ResultAt assembles the Result for one probability threshold. For eager
// plans this is a threshold scan over the shared per-candidate
// probability map; for EarlyStop plans it runs the wave with memoised
// probabilities. The Result is independent of how many other thresholds
// the plan has answered.
func (p *SharedPlan) ResultAt(ctx context.Context, prob float64) (*Result, error) {
	if err := validateProb(prob); err != nil {
		return nil, err
	}
	if p.closed {
		return nil, xerr.Markf(xerr.KindInternal, "core: ResultAt on a closed plan")
	}
	if p.deferred && !p.verified {
		return nil, xerr.Markf(xerr.KindInternal, "core: ResultAt on a deferred plan before FinishVerification")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e := p.e
	switch p.kind {
	case planSequential:
		// One full child answer per location, merged exactly as the
		// sequential baseline defines: segments unioned (boundary
		// duplicates counted once), starts concatenated, probabilities
		// dropped.
		parts := make([]*Result, len(p.children))
		for i, child := range p.children {
			one, err := child.ResultAt(ctx, prob)
			if err != nil {
				return nil, err
			}
			parts[i] = one
		}
		res := MergeRegions(false, parts...)
		// The scatter step charges a sharded sequential plan's whole
		// verification to the parent; fold it in (zero when unsharded, so
		// the merged child timings stand alone as before).
		res.Metrics.VerifyNS += p.verifyNS
		p.finish(res)
		return res, nil

	case planExhaustive:
		res := &Result{
			Starts:      append([]roadnet.SegmentID(nil), p.starts...),
			Probability: map[roadnet.SegmentID]float64{},
		}
		for i, s := range p.order {
			if p.probs[i] >= prob {
				res.Segments = append(res.Segments, s)
				res.Probability[s] = p.probs[i]
			}
		}
		res.Metrics.Evaluated = p.evalFixed
		p.finish(res)
		return res, nil

	default: // planBounded
		res := &Result{
			Starts:      append([]roadnet.SegmentID(nil), p.starts...),
			Probability: map[roadnet.SegmentID]float64{},
		}
		evaluated := p.evalFixed
		verifyNS := p.verifyNS
		if p.lazy {
			tWave := now()
			calls := 0
			probFn := func(s roadnet.SegmentID) (float64, error) {
				calls++
				if v, ok := p.memo[s]; ok {
					return v, nil
				}
				v, err := p.wave.prob(s)
				if err != nil {
					return 0, err
				}
				p.memo[s] = v
				return v, nil
			}
			include := make(map[roadnet.SegmentID]bool, p.maxReg.size())
			if err := e.earlyStopWave(ctx, p.maxReg, p.minReg, probFn, prob, include, res.Probability); err != nil {
				return nil, err
			}
			for s := range include {
				res.Segments = append(res.Segments, s)
			}
			evaluated = calls
			verifyNS += now().Sub(tWave).Nanoseconds()
		} else {
			// keep and order partition Bmax, so the answer is their
			// concatenation — no set the size of Bmax to build for an
			// answer of a few dozen segments (finish sorts it).
			res.Segments = append(res.Segments, p.keep...)
			for i, s := range p.order {
				if p.probs[i] >= prob {
					res.Segments = append(res.Segments, s)
					res.Probability[s] = p.probs[i]
				}
			}
		}
		res.Metrics.Evaluated = evaluated
		res.Metrics.BoundNS = p.boundNS
		res.Metrics.VerifyNS = verifyNS
		res.Metrics.MaxRegion = p.maxSize
		res.Metrics.MinRegion = p.minSize
		p.finish(res)
		return res, nil
	}
}

// RowStats reports the plan's Con-Index row-source activity (including
// child plans): rows each member query of a sharing group did not have to
// re-resolve through the shared tables.
func (p *SharedPlan) RowStats() conindex.PinStats {
	st := p.rows.Stats()
	for _, c := range p.children {
		st = st.Add(c.RowStats())
	}
	return st
}

// finish sorts the result and fills the derived metrics fields from the
// plan's cost-attribution snapshots.
func (p *SharedPlan) finish(res *Result) {
	e := p.e
	sort.Slice(res.Segments, func(i, j int) bool { return res.Segments[i] < res.Segments[j] })
	var km float64
	for _, s := range res.Segments {
		km += e.net.Segment(s).Length / 1000
	}
	res.Metrics.RoadKm = km
	res.Metrics.ResultSegments = len(res.Segments)
	res.Metrics.IO = e.st.Pool().Stats().Sub(p.io0)
	tl := e.st.CacheStats().Sub(p.tl0)
	res.Metrics.TLCacheHits = tl.Hits
	res.Metrics.TLCacheMisses = tl.Misses
	con := p.RowStats().Sub(p.rows0)
	res.Metrics.ConHits = con.Hits()
	res.Metrics.ConMaterialised = con.Materialised
	res.Metrics.Elapsed = time.Since(p.began)
}

// Close releases the plan's pooled bounding regions. The plan must not be
// used afterwards. Idempotent; safe on a nil plan.
func (p *SharedPlan) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	p.e.putRegion(p.maxReg)
	p.e.putRegion(p.minReg)
	p.maxReg, p.minReg = nil, nil
	for _, c := range p.children {
		c.Close()
	}
}
