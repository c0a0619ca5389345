package streach

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streach/internal/core"
	"streach/internal/geo"
	"streach/internal/router"
	"streach/internal/shard"
)

// Kind selects what a Request asks for.
type Kind int

const (
	// KindReach is the single-location forward reachability query: which
	// road segments did historical traffic reach from Locations[0] within
	// [Start, Start+Duration] on at least a Prob fraction of days?
	KindReach Kind = iota
	// KindReverse is the mirror catchment query: from which segments can
	// Locations[0] be reached?
	KindReverse
	// KindMulti is the multi-location query over all Locations (the
	// m-query); the answer is the unified Prob-reachable region.
	KindMulti
	// KindRoute plans a route from Locations[0] to Locations[1] departing
	// at Start (time-dependent by default; see AlgoFreeFlow). Duration and
	// Prob are ignored.
	KindRoute
)

// String names the kind for logs and errors.
func (k Kind) String() string {
	switch k {
	case KindReach:
		return "reach"
	case KindReverse:
		return "reverse"
	case KindMulti:
		return "multi"
	case KindRoute:
		return "route"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Algorithm selects the query-processing variant for a Request.
type Algorithm int

const (
	// AlgoAuto picks the paper's algorithm for the request kind: SQMB+TBS
	// for reach/reverse, MQMB+TBS for multi, time-dependent Dijkstra for
	// route.
	AlgoAuto Algorithm = iota
	// AlgoBounded forces the bounded two-phase pipeline (SQMB / MQMB +
	// TBS). Same as AlgoAuto today; named so callers can be explicit.
	AlgoBounded
	// AlgoExhaustive runs the exhaustive-search baseline (reach/reverse
	// only): no bounding phase, every segment within the worst-case radius
	// is verified.
	AlgoExhaustive
	// AlgoSequential answers a multi query by running the single-location
	// pipeline per location and unioning (the m-query baseline of §4.3).
	AlgoSequential
	// AlgoFreeFlow plans a route at static per-class free-flow speeds (the
	// time-invariant baseline; route only).
	AlgoFreeFlow
)

// String names the algorithm for logs and errors.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoBounded:
		return "bounded"
	case AlgoExhaustive:
		return "exhaustive"
	case AlgoSequential:
		return "sequential"
	case AlgoFreeFlow:
		return "freeflow"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Request is the single query type behind System.Do: every query the
// system answers — forward/reverse reachability, multi-location coverage,
// route planning — is a Request with a Kind.
type Request struct {
	// Kind selects the query type.
	Kind Kind
	// Locations are the query points. KindReach/KindReverse use
	// Locations[0]; KindMulti uses all of them; KindRoute reads
	// Locations[0] as the origin and Locations[1] as the destination.
	Locations []Location
	// Start is the time of day T (for KindRoute: the departure time).
	Start time.Duration
	// Duration is the horizon L. Ignored by KindRoute.
	Duration time.Duration
	// Prob is the required reachability probability in (0, 1]. Ignored by
	// KindRoute. Overridable per call with WithProb.
	Prob float64
}

// ReachRequest builds a single-location forward reachability Request.
func ReachRequest(loc Location, start, dur time.Duration, prob float64) Request {
	return Request{Kind: KindReach, Locations: []Location{loc}, Start: start, Duration: dur, Prob: prob}
}

// ReverseRequest builds a catchment (reverse reachability) Request.
func ReverseRequest(loc Location, start, dur time.Duration, prob float64) Request {
	return Request{Kind: KindReverse, Locations: []Location{loc}, Start: start, Duration: dur, Prob: prob}
}

// MultiRequest builds a multi-location Request.
func MultiRequest(locs []Location, start, dur time.Duration, prob float64) Request {
	return Request{Kind: KindMulti, Locations: locs, Start: start, Duration: dur, Prob: prob}
}

// RouteRequest builds a route-planning Request departing at depart.
func RouteRequest(from, to Location, depart time.Duration) Request {
	return Request{Kind: KindRoute, Locations: []Location{from, to}, Start: depart}
}

// queryOptions is the resolved per-call option set: the engine options
// start from the paper's defaults (the zero core.Options) and each
// With... override replaces one knob for this call only.
type queryOptions struct {
	algorithm    Algorithm
	prob         float64
	probSet      bool
	budget       time.Duration
	engine       core.Options
	batchWorkers int
	noSharing    bool
}

// effectiveProb resolves the probability threshold for one request:
// WithProb overrides the request's own Prob.
func (qo queryOptions) effectiveProb(req Request) float64 {
	if qo.probSet {
		return qo.prob
	}
	return req.Prob
}

// Option sets one engine or dispatch knob for a single Do/DoBatch call.
type Option func(*queryOptions)

// WithAlgorithm selects the processing variant (see Algorithm).
func WithAlgorithm(a Algorithm) Option {
	return func(o *queryOptions) { o.algorithm = a }
}

// WithProb overrides the request's probability threshold.
func WithProb(p float64) Option {
	return func(o *queryOptions) { o.prob, o.probSet = p, true }
}

// WithDeadlineBudget caps the query's processing time: Do derives a
// child context with this timeout, so the query is abandoned (returning
// context.DeadlineExceeded) when the budget runs out. A zero or negative
// budget means no extra deadline beyond the caller's context.
func WithDeadlineBudget(d time.Duration) Option {
	return func(o *queryOptions) { o.budget = d }
}

// WithVerifyWorkers bounds the verification worker pool for this query
// (0 = GOMAXPROCS, the default; 1 = serial).
func WithVerifyWorkers(n int) Option {
	return func(o *queryOptions) { o.engine.VerifyWorkers = n }
}

// WithVerifyAll toggles full verification of the maximum bounding region
// for this query: slower, but the answer is exactly the segments of the
// maximum region whose probability reaches Prob.
func WithVerifyAll(on bool) Option {
	return func(o *queryOptions) { o.engine.VerifyAll = on }
}

// WithEarlyStop toggles the thesis's literal Algorithm 2 queue variant
// for this query (fastest, over-approximates on sparse data).
func WithEarlyStop(on bool) Option {
	return func(o *queryOptions) { o.engine.EarlyStop = on }
}

// WithNoVisitedSet toggles the TBS visited-set ablation for this query.
func WithNoVisitedSet(on bool) Option {
	return func(o *queryOptions) { o.engine.NoVisitedSet = on }
}

// WithNoOverlapFilter toggles the MQMB overlap-elimination ablation for
// this query.
func WithNoOverlapFilter(on bool) Option {
	return func(o *queryOptions) { o.engine.NoOverlapFilter = on }
}

// WithBatchWorkers bounds DoBatch's parallelism (0 = min(GOMAXPROCS,
// len(requests))). Ignored by Do.
func WithBatchWorkers(n int) Option {
	return func(o *queryOptions) { o.batchWorkers = n }
}

// WithBatchSharing toggles cross-query work sharing (default on): in
// DoBatch, the group-and-plan scheduler — requests that differ only in
// Prob share one bounding + probe + verification plan — and, in both Do
// and DoBatch, the cross-batch plan cache. Results are bit-identical
// either way; turning it off recovers fully independent execution
// (benchmarks, debugging, tests that pin per-execution observables).
func WithBatchSharing(on bool) Option {
	return func(o *queryOptions) { o.noSharing = !on }
}

// resolveOptions folds the call's options over the defaults.
func resolveOptions(opts []Option) queryOptions {
	var qo queryOptions
	for _, o := range opts {
		o(&qo)
	}
	return qo
}

// Do answers one Request; with DoBatch it is the facade's only query
// entry point. The context carries cancellation and deadlines into every
// layer below — bounding rounds, Con-Index Dijkstras, the verification
// worker pool, route searches — so an abandoned HTTP request or an
// expired deadline stops the query within one checkpoint interval and
// Do returns ctx.Err().
//
// Options configure this call only (per-query ablations, verification
// parallelism, probability, algorithm, deadline budget).
//
// For KindRoute the returned Region holds the path in SegmentIDs and the
// journey in Region.Route; all other kinds fill the usual reachability
// region fields.
func (s *System) Do(ctx context.Context, req Request, opts ...Option) (*Region, error) {
	qo := resolveOptions(opts)
	region, err := s.do(ctx, req, qo)
	return region, wrapError(req.Kind.String(), err)
}

func (s *System) do(ctx context.Context, req Request, qo queryOptions) (*Region, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if qo.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, qo.budget)
		defer cancel()
	}
	prob := req.Prob
	if qo.probSet {
		prob = qo.prob
	}

	switch req.Kind {
	case KindReach, KindReverse:
		if len(req.Locations) < 1 {
			return nil, errInvalid(req.Kind.String(), "streach: %v request needs a location", req.Kind)
		}
		switch qo.algorithm {
		case AlgoAuto, AlgoBounded, AlgoExhaustive:
		default:
			return nil, errInvalid(req.Kind.String(), "streach: algorithm %v does not answer %v requests", qo.algorithm, req.Kind)
		}
		return s.doPlan(ctx, req, qo, prob)

	case KindMulti:
		if len(req.Locations) == 0 {
			return nil, errInvalid("multi", "streach: multi request needs at least one location")
		}
		switch qo.algorithm {
		case AlgoAuto, AlgoBounded, AlgoSequential:
		case AlgoExhaustive:
			return nil, errInvalid("multi", "streach: exhaustive search has no multi-location variant; use sequential")
		default:
			return nil, errInvalid("multi", "streach: algorithm %v does not answer multi requests", qo.algorithm)
		}
		return s.doPlan(ctx, req, qo, prob)

	case KindRoute:
		if len(req.Locations) < 2 {
			return nil, errInvalid("route", "streach: route request needs origin and destination locations")
		}
		switch qo.algorithm {
		case AlgoAuto, AlgoBounded, AlgoFreeFlow:
		default:
			return nil, errInvalid("route", "streach: algorithm %v does not answer route requests", qo.algorithm)
		}
		return s.doRoute(ctx, req.Locations[0], req.Locations[1], req.Start, qo.algorithm == AlgoFreeFlow)

	default:
		return nil, errInvalid("do", "streach: unknown request kind %v", req.Kind)
	}
}

// doPlan answers one reachability request plan-first: probability
// validated up front (matching the one-shot engine methods' validation
// order), then a shared plan — cached, sharded, or freshly built — and
// one ResultAt at the request's threshold.
func (s *System) doPlan(ctx context.Context, req Request, qo queryOptions, prob float64) (*Region, error) {
	if err := core.ValidateProb(prob); err != nil {
		return nil, err
	}
	plan, key, cacheable, err := s.acquirePlan(ctx, req, qo)
	if err != nil {
		return nil, err
	}
	// Deferred so the plan (and its pooled bounding regions) is released
	// on every exit, including a panic unwinding through ResultAt.
	defer func() { s.releasePlan(key, cacheable, plan) }()
	res, rerr := plan.ResultAt(ctx, prob)
	if rerr != nil {
		return nil, rerr
	}
	return s.region(res), nil
}

// acquirePlan resolves the shared plan for a reachability request: from
// the cross-batch cache when an equivalent plan is parked there, else
// freshly built — on the shard cluster when the system is sharded, on
// the (possibly option-overridden) engine otherwise.
func (s *System) acquirePlan(ctx context.Context, req Request, qo queryOptions) (plan queryPlan, key string, cacheable bool, err error) {
	cacheable = s.plans != nil && !qo.noSharing && req.Kind != KindRoute && groupable(req, qo)
	if cacheable {
		// The data-version suffix keeps cached plans from outliving the
		// data they were computed from: a live ingest append or a
		// compaction bumps the version, so a plan parked before it can
		// never answer a query issued after it. (Intra-batch grouping
		// uses the bare groupKey — members of one DoBatch call share a
		// plan regardless of concurrent ingest, which is the same
		// query-raced-the-ingest linearization a single query has.)
		shapeKey := groupKey(req, qo)
		key = shapeKey + "|" + s.DataVersionKey()
		if pl, ok := s.plans.take(key); ok {
			s.sharing.planHits.Add(1)
			pl.Rebase()
			return pl, key, true, nil
		}
		s.sharing.planMisses.Add(1)
		// An organic miss is exactly the signal the warm-plan pipeline
		// feeds on: record the shape so the next epoch swap can rebuild
		// this plan before traffic asks for it.
		s.recordPlanShape(req, qo, shapeKey)
	}
	plan, err = s.newPlan(ctx, req, qo)
	return plan, key, cacheable, err
}

// releasePlan parks a cacheable plan for the next equivalent query, or
// closes it.
func (s *System) releasePlan(key string, cacheable bool, plan queryPlan) {
	if cacheable {
		s.plans.put(key, plan)
	} else {
		plan.Close()
	}
}

// planBackend is one execution backend's plan constructors — the shard
// cluster or the single engine, adapted to the common queryPlan surface
// so newPlan dispatches kind and algorithm exactly once.
type planBackend struct {
	reach, reverse, reachES, reverseES func(context.Context, core.Query) (queryPlan, error)
	multi, multiSeq                    func(context.Context, core.MultiQuery) (queryPlan, error)
}

func clusterBackend(c *shard.Cluster) planBackend {
	return planBackend{
		reach:     func(ctx context.Context, q core.Query) (queryPlan, error) { return c.PlanReach(ctx, q) },
		reverse:   func(ctx context.Context, q core.Query) (queryPlan, error) { return c.PlanReverse(ctx, q) },
		reachES:   func(ctx context.Context, q core.Query) (queryPlan, error) { return c.PlanReachES(ctx, q) },
		reverseES: func(ctx context.Context, q core.Query) (queryPlan, error) { return c.PlanReverseES(ctx, q) },
		multi:     func(ctx context.Context, q core.MultiQuery) (queryPlan, error) { return c.PlanMulti(ctx, q) },
		multiSeq:  func(ctx context.Context, q core.MultiQuery) (queryPlan, error) { return c.PlanMultiSequential(ctx, q) },
	}
}

func engineBackend(e *core.Engine) planBackend {
	return planBackend{
		reach:     func(ctx context.Context, q core.Query) (queryPlan, error) { return e.PlanReach(ctx, q) },
		reverse:   func(ctx context.Context, q core.Query) (queryPlan, error) { return e.PlanReverse(ctx, q) },
		reachES:   func(ctx context.Context, q core.Query) (queryPlan, error) { return e.PlanReachES(ctx, q) },
		reverseES: func(ctx context.Context, q core.Query) (queryPlan, error) { return e.PlanReverseES(ctx, q) },
		multi:     func(ctx context.Context, q core.MultiQuery) (queryPlan, error) { return e.PlanMulti(ctx, q) },
		multiSeq:  func(ctx context.Context, q core.MultiQuery) (queryPlan, error) { return e.PlanMultiSequential(ctx, q) },
	}
}

// newPlan builds the shared plan for one reachability request on the
// shard cluster when the system is sharded, else on the single engine.
// The request's kind/algorithm pairing must already be validated.
func (s *System) newPlan(ctx context.Context, req Request, qo queryOptions) (queryPlan, error) {
	var be planBackend
	custom := qo.engine != core.Options{}
	if c := s.cluster.Load(); c != nil {
		if custom {
			c = c.WithOptions(qo.engine)
		}
		be = clusterBackend(c)
	} else {
		eng := s.engine
		if custom {
			eng = s.engine.WithOptions(qo.engine)
		}
		be = engineBackend(eng)
	}
	switch req.Kind {
	case KindReach, KindReverse:
		q := core.Query{
			Location: geo.Point{Lat: req.Locations[0].Lat, Lng: req.Locations[0].Lng},
			Start:    req.Start,
			Duration: req.Duration,
		}
		switch {
		case qo.algorithm == AlgoExhaustive && req.Kind == KindReverse:
			return be.reverseES(ctx, q)
		case qo.algorithm == AlgoExhaustive:
			return be.reachES(ctx, q)
		case req.Kind == KindReverse:
			return be.reverse(ctx, q)
		default:
			return be.reach(ctx, q)
		}
	case KindMulti:
		mq := core.MultiQuery{
			Locations: toPoints(req.Locations),
			Start:     req.Start,
			Duration:  req.Duration,
		}
		if qo.algorithm == AlgoSequential {
			return be.multiSeq(ctx, mq)
		}
		return be.multi(ctx, mq)
	}
	return nil, fmt.Errorf("streach: no plan for %v requests", req.Kind)
}

// doRoute answers KindRoute: the region's SegmentIDs hold the path and
// Region.Route the journey summary.
func (s *System) doRoute(ctx context.Context, from, to Location, departAt time.Duration, freeFlow bool) (*Region, error) {
	began := time.Now()
	src, _, _, ok := s.net.SnapPoint(geo.Point{Lat: from.Lat, Lng: from.Lng})
	if !ok {
		return nil, errInvalid("route", "streach: no road near %+v", from)
	}
	dst, _, _, ok := s.net.SnapPoint(geo.Point{Lat: to.Lat, Lng: to.Lng})
	if !ok {
		return nil, errInvalid("route", "streach: no road near %+v", to)
	}
	rt := router.New(s.net, s.con)
	var (
		r   *router.Route
		err error
	)
	if freeFlow {
		r, err = rt.FreeFlow(ctx, src, dst)
	} else {
		r, err = rt.TimeDependent(ctx, src, dst, departAt.Seconds())
	}
	if err != nil {
		return nil, err
	}
	route := routeResult(r)
	return &Region{
		SegmentIDs: append([]int32(nil), route.SegmentIDs...),
		RoadKm:     route.DistanceKm,
		Route:      route,
		Metrics:    Metrics{Elapsed: time.Since(began), RoadKm: route.DistanceKm, RoadSegments: len(route.SegmentIDs)},
		sys:        s,
	}, nil
}

func routeResult(r *router.Route) *RouteResult {
	ids := make([]int32, len(r.Path))
	for i, s := range r.Path {
		ids[i] = int32(s)
	}
	return &RouteResult{
		SegmentIDs: ids,
		TravelTime: time.Duration(r.TravelTimeSec * float64(time.Second)),
		DistanceKm: r.DistanceMeters / 1000,
	}
}

// BatchResult pairs one DoBatch request with its answer (or error).
type BatchResult struct {
	// Region is the answer; nil when Err is set.
	Region *Region
	// Err is the per-request failure, context.Canceled /
	// context.DeadlineExceeded when the batch context ended before the
	// request completed.
	Err error
}

// DoBatch answers every request and returns one BatchResult per request,
// positionally. A cancelled or expired ctx stops in-flight queries at
// their next checkpoint and marks every unfinished request with
// ctx.Err(); options apply to every request in the batch (use
// WithBatchWorkers to bound the parallelism).
//
// DoBatch is batch-aware: requests asking about the same (kind, start
// set, start time, window, algorithm) — differing only in Prob — are
// grouped, and each group is planned once (core.SharedPlan): one
// bounding-region search, one materialised probe start-set, one
// verification pass building a per-candidate empirical-probability map
// that every member's threshold is resolved from. Group results are
// bit-identical to independent execution (the single-query path runs the
// same plan machinery); WithBatchSharing(false) disables grouping. The
// scheduling unit is a group, so a mid-batch cancellation fails a whole
// group at once and unstarted groups are marked without planning.
func (s *System) DoBatch(ctx context.Context, reqs []Request, opts ...Option) []BatchResult {
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	qo := resolveOptions(opts)

	// Each unit is one scheduling item: a singleton request, or a group
	// of request indexes sharing one plan. Units preserve first-seen
	// request order.
	var units [][]int
	if qo.noSharing {
		units = make([][]int, len(reqs))
		for i := range reqs {
			units[i] = []int{i}
		}
	} else {
		byKey := map[string]int{}
		for i, req := range reqs {
			if !groupable(req, qo) {
				units = append(units, []int{i})
				continue
			}
			k := groupKey(req, qo)
			if u, ok := byKey[k]; ok {
				units[u] = append(units[u], i)
			} else {
				byKey[k] = len(units)
				units = append(units, []int{i})
			}
		}
	}

	workers := qo.batchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= len(units) {
					return
				}
				idxs := units[u]
				if err := ctx.Err(); err != nil {
					for _, i := range idxs {
						out[i] = BatchResult{Err: err}
					}
					continue // mark the rest, don't start new work
				}
				if len(idxs) == 1 {
					i := idxs[0]
					region, err := s.do(ctx, reqs[i], qo)
					out[i] = BatchResult{Region: region, Err: wrapError(reqs[i].Kind.String(), err)}
					continue
				}
				s.doGroup(ctx, reqs, idxs, qo, out)
			}
		}()
	}
	wg.Wait()
	return out
}

// groupable reports whether the request can ride a shared plan: a valid
// kind/algorithm pairing with the locations and probability it needs.
// Malformed requests take the singleton path so their error is exactly
// what independent execution would return, and so does any request with
// a deadline budget — the budget is a per-query guarantee, which a plan
// shared across members cannot honour bit-identically under time
// pressure.
func groupable(req Request, qo queryOptions) bool {
	if qo.budget > 0 {
		return false
	}
	switch req.Kind {
	case KindReach, KindReverse:
		if len(req.Locations) < 1 {
			return false
		}
		switch qo.algorithm {
		case AlgoAuto, AlgoBounded, AlgoExhaustive:
		default:
			return false
		}
	case KindMulti:
		if len(req.Locations) == 0 {
			return false
		}
		switch qo.algorithm {
		case AlgoAuto, AlgoBounded, AlgoSequential:
		default:
			return false
		}
	case KindRoute:
		// Route answers are Prob-independent: only literally identical
		// requests group, and they share one computed journey.
		return len(req.Locations) >= 2
	default:
		return false
	}
	p := qo.effectiveProb(req)
	return p > 0 && p <= 1
}

// groupKey canonicalises everything that determines a request's shared
// plan — kind, algorithm, the result-affecting engine options, start
// set, start time, and (except for routes, which ignore it) the window.
// Prob is deliberately absent: that is the axis the plan is shared
// across. The options matter because the key outlives one DoBatch call:
// it is also the cross-batch plan-cache key, and two executions that
// differ in any result-affecting option (WithVerifyAll, WithEarlyStop,
// WithNoVisitedSet, WithNoOverlapFilter) must never share a plan.
// VerifyWorkers is excluded on purpose — it changes cost, not results.
// The serving layer's coalesceKey (internal/serve) mirrors this
// serialisation but includes Prob, because it shares whole answers, not
// plans — keep the two in step when Request grows a field.
func groupKey(req Request, qo queryOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|o%d|%d", int(req.Kind), int(qo.algorithm), optionBits(qo.engine), req.Start)
	if req.Kind != KindRoute {
		fmt.Fprintf(&b, "|%d", req.Duration)
	}
	for _, l := range req.Locations {
		fmt.Fprintf(&b, "|%x,%x", math.Float64bits(l.Lat), math.Float64bits(l.Lng))
	}
	return b.String()
}

// optionBits packs the result-affecting engine options into one byte —
// VerifyAll 1, EarlyStop 2, NoVisitedSet 4, NoOverlapFilter 8 — the form
// groupKey prints and planshapes.bin stores; optionsOf unpacks it.
func optionBits(o core.Options) uint8 {
	var bits uint8
	if o.VerifyAll {
		bits |= 1
	}
	if o.EarlyStop {
		bits |= 2
	}
	if o.NoVisitedSet {
		bits |= 4
	}
	if o.NoOverlapFilter {
		bits |= 8
	}
	return bits
}

// optionsOf is the inverse of optionBits.
func optionsOf(bits uint8) core.Options {
	return core.Options{
		VerifyAll:       bits&1 != 0,
		EarlyStop:       bits&2 != 0,
		NoVisitedSet:    bits&4 != 0,
		NoOverlapFilter: bits&8 != 0,
	}
}

// doGroup answers one group of requests off a single shared plan. Plan
// failure (including cancellation mid-plan) reclaims the whole group:
// every member is marked with the same error.
func (s *System) doGroup(ctx context.Context, reqs []Request, idxs []int, qo queryOptions, out []BatchResult) {
	rep := reqs[idxs[0]]
	op := rep.Kind.String()
	fail := func(err error) {
		err = wrapError(op, err)
		for _, i := range idxs {
			out[i] = BatchResult{Err: err}
		}
	}
	if rep.Kind == KindRoute {
		// One journey computation, cloned per member.
		region, err := s.do(ctx, rep, qo)
		if err != nil {
			fail(err)
			return
		}
		out[idxs[0]] = BatchResult{Region: region}
		for _, i := range idxs[1:] {
			out[i] = BatchResult{Region: cloneRegion(region)}
		}
		s.sharing.groups.Add(1)
		s.sharing.coalesced.Add(int64(len(idxs) - 1))
		return
	}

	plan, key, cacheable, err := s.acquirePlan(ctx, rep, qo)
	if err != nil {
		fail(err)
		return
	}
	defer func() { s.releasePlan(key, cacheable, plan) }()

	for _, i := range idxs {
		if err := ctx.Err(); err != nil {
			out[i] = BatchResult{Err: err}
			continue
		}
		res, rerr := plan.ResultAt(ctx, qo.effectiveProb(reqs[i]))
		if rerr != nil {
			out[i] = BatchResult{Err: wrapError(op, rerr)}
			continue
		}
		out[i] = BatchResult{Region: s.region(res)}
	}

	shared := int64(len(idxs) - 1)
	s.sharing.groups.Add(1)
	s.sharing.coalesced.Add(shared)
	s.sharing.probeSets.Add(shared)
	// Rows the member queries did not have to re-resolve: one full
	// working-set fetch per extra member.
	s.sharing.rowsShared.Add(plan.RowStats().Fetched * shared)
}
