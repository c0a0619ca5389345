package streach

import (
	"context"
	"fmt"
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
	// KindRoute.
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
	algorithm Algorithm
	engine    core.Options
	noSharing bool
}

// Option sets one engine or dispatch knob for a single Do call.
type Option func(*queryOptions)

// WithAlgorithm selects the processing variant (see Algorithm).
func WithAlgorithm(a Algorithm) Option {
	return func(o *queryOptions) { o.algorithm = a }
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

// WithBatchSharing toggles plan sharing (default on): Do takes its plans
// from the system's plan store, so requests that differ only in Prob —
// concurrent or not — share one bounding + probe + verification plan.
// Results are bit-identical either way; turning it off recovers fully
// independent execution (benchmarks, debugging, tests that pin
// per-execution observables).
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

// Do answers one Request; it is the facade's only query entry point.
// The context is the query's one deadline: it carries cancellation and
// deadlines into every layer below — bounding rounds, Con-Index
// Dijkstras, the verification worker pool, route searches — so an
// abandoned HTTP request or an expired deadline stops the query within
// one checkpoint interval and Do returns ctx.Err(). Do is safe for
// concurrent use; concurrent requests that differ only in Prob share one
// plan (see WithBatchSharing).
//
// Options configure this call only (per-query ablations, verification
// parallelism, algorithm, plan sharing).
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
	if err := validateRequest(req, qo); err != nil {
		return nil, err
	}
	if req.Kind == KindRoute {
		return s.doRoute(ctx, req.Locations[0], req.Locations[1], req.Start, qo.algorithm == AlgoFreeFlow)
	}
	return s.doPlan(ctx, req, qo)
}

// validateRequest checks that the request has the locations its kind
// needs, that a route departs at a time of day, and that the algorithm
// answers that kind.
func validateRequest(req Request, qo queryOptions) error {
	op := req.Kind.String()
	switch req.Kind {
	case KindReach, KindReverse:
		if len(req.Locations) < 1 {
			return errInvalid(op, "streach: %v request needs a location", req.Kind)
		}
		switch qo.algorithm {
		case AlgoAuto, AlgoBounded, AlgoExhaustive:
			return nil
		}
	case KindMulti:
		if len(req.Locations) == 0 {
			return errInvalid(op, "streach: multi request needs at least one location")
		}
		switch qo.algorithm {
		case AlgoAuto, AlgoBounded, AlgoSequential:
			return nil
		case AlgoExhaustive:
			return errInvalid(op, "streach: exhaustive search has no multi-location variant; use sequential")
		}
	case KindRoute:
		if len(req.Locations) < 2 {
			return errInvalid(op, "streach: route request needs origin and destination locations")
		}
		if req.Start < 0 || req.Start >= 24*time.Hour {
			return errInvalid(op, "streach: route departure must be a time of day in [0, 24h), got %v", req.Start)
		}
		switch qo.algorithm {
		case AlgoAuto, AlgoBounded, AlgoFreeFlow:
			return nil
		}
	default:
		return errInvalid("do", "streach: unknown request kind %v", req.Kind)
	}
	return errInvalid(op, "streach: algorithm %v does not answer %v requests", qo.algorithm, req.Kind)
}

// doPlan answers one validated reachability request plan-first: the
// probability is validated up front (before the plan checks the window),
// then a shared plan and one ResultAt at the request's threshold. The
// plan comes from the plan store unless the request opts out of sharing.
func (s *System) doPlan(ctx context.Context, req Request, qo queryOptions) (*Region, error) {
	prob := req.Prob
	if err := core.ValidateProb(prob); err != nil {
		return nil, err
	}
	if qo.noSharing {
		plan, err := s.newPlan(ctx, req, qo)
		if err != nil {
			return nil, err
		}
		defer plan.Close()
		return s.answer(plan.ResultAt(ctx, prob))
	}
	e, how, err := s.plans.acquire(ctx, s.planKey(req, qo), func(ctx context.Context) (queryPlan, error) {
		return s.newPlan(ctx, req, qo)
	})
	s.sharing.acquired[how].Add(1)
	if err != nil {
		return nil, err
	}
	// Deferred so the hold is given back on every exit, including a panic
	// unwinding through ResultAt.
	defer s.plans.release(e)
	return s.answer(e.resultAt(ctx, prob, how))
}

// answer turns a plan's result into the facade's Region.
func (s *System) answer(res *core.Result, err error) (*Region, error) {
	if err != nil {
		return nil, err
	}
	return s.region(res), nil
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

// optionBits packs the result-affecting engine options into one byte —
// VerifyAll 1, EarlyStop 2, NoVisitedSet 4, NoOverlapFilter 8 — the form
// shapeKey stores.
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
