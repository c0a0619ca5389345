package streach

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// cancelAfter reports Canceled once Err has been polled n times: a
// deterministic "cancel mid-query" with no sleeps or races.
type cancelAfter struct {
	context.Context
	remaining atomic.Int64
}

func cancelAfterN(n int) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.remaining.Store(int64(n))
	return c
}

func (c *cancelAfter) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestDoRoute(t *testing.T) {
	s := smallSystem(t)
	q := testQuery(s)
	from := q.Locations[0]
	to := Location{Lat: from.Lat + 0.02, Lng: from.Lng + 0.02}

	region, err := s.Do(context.Background(), RouteRequest(from, to, 8*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if region.Route == nil || len(region.Route.SegmentIDs) == 0 {
		t.Fatal("route answer has no journey")
	}
	if len(region.SegmentIDs) != len(region.Route.SegmentIDs) {
		t.Fatal("region SegmentIDs should mirror the route path")
	}
	if region.Route.TravelTime <= 0 {
		t.Fatalf("travel time = %v", region.Route.TravelTime)
	}
	ff, err := s.Do(context.Background(), RouteRequest(from, to, 0), WithAlgorithm(AlgoFreeFlow))
	if err != nil {
		t.Fatal(err)
	}
	if ff.Route == nil || len(ff.Route.SegmentIDs) == 0 {
		t.Fatal("free-flow route answer has no journey")
	}
}

func TestDoRejectsBadRequests(t *testing.T) {
	s := smallSystem(t)
	ctx := context.Background()
	q := testQuery(s)
	for name, req := range map[string]struct {
		r    Request
		opts []Option
	}{
		"no-location":        {r: Request{Kind: KindReach, Start: q.Start, Duration: q.Duration, Prob: q.Prob}},
		"route-one-location": {r: Request{Kind: KindRoute, Locations: q.Locations}},
		"multi-none":         {r: Request{Kind: KindMulti, Start: q.Start, Duration: q.Duration, Prob: q.Prob}},
		"bad-kind":           {r: Request{Kind: Kind(42), Locations: q.Locations}},
		"route-exhaustive":   {r: RouteRequest(q.Locations[0], q.Locations[0], 0), opts: []Option{WithAlgorithm(AlgoExhaustive)}},
		"reach-sequential":   {r: q, opts: []Option{WithAlgorithm(AlgoSequential)}},
		"multi-exhaustive":   {r: MultiRequest(q.Locations, q.Start, q.Duration, q.Prob), opts: []Option{WithAlgorithm(AlgoExhaustive)}},
	} {
		if _, err := s.Do(ctx, req.r, req.opts...); err == nil {
			t.Errorf("%s: Do accepted an invalid request", name)
		}
	}
}

// TestPerQueryOptionsOverrideDefaults: options must override the
// default engine policy for one call only.
func TestPerQueryOptionsOverrideDefaults(t *testing.T) {
	s := smallSystem(t)
	ctx := context.Background()
	req := testQuery(s)

	def, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// WithVerifyWorkers(1) forces the serial verification path; the
	// answer must be identical to the default parallel pool's.
	serial, err := s.Do(ctx, req, WithVerifyWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.SegmentIDs, serial.SegmentIDs) {
		t.Fatal("WithVerifyWorkers(1) changed the answer")
	}

	// WithVerifyAll probes the otherwise-unverified minimum region, so it
	// must evaluate strictly more segments — observable proof the
	// default was overridden for this call.
	all, err := s.Do(ctx, req, WithVerifyAll(true))
	if err != nil {
		t.Fatal(err)
	}
	if def.Metrics.MinRegion > 0 && all.Metrics.Evaluated <= def.Metrics.Evaluated {
		t.Fatalf("WithVerifyAll evaluated %d segments, default %d",
			all.Metrics.Evaluated, def.Metrics.Evaluated)
	}

	// WithProb replaces the request's threshold: a near-impossible
	// probability must shrink the region.
	strict, err := s.Do(ctx, req, WithProb(0.99))
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.SegmentIDs) >= len(def.SegmentIDs) {
		t.Fatalf("WithProb(0.99) kept %d of %d segments",
			len(strict.SegmentIDs), len(def.SegmentIDs))
	}

	// The overrides must not stick to the system.
	again, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.SegmentIDs, again.SegmentIDs) {
		t.Fatal("per-query options leaked into later calls")
	}
}

// TestDoCancellation: a cancelled context aborts reach queries promptly,
// both pre-cancelled and mid-query (at a deterministic checkpoint).
func TestDoCancellation(t *testing.T) {
	s := smallSystem(t)
	req := testQuery(s)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Do(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Do = %v, want context.Canceled", err)
	}

	// The budgets must stay below the total checkpoint polls of a fully
	// warm query (bounding rounds + one poll per verified candidate, well
	// over a hundred on this world) so the cancel always lands mid-query.
	for _, n := range []int{1, 10, 50} {
		if _, err := s.Do(cancelAfterN(n), req); !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-query cancel (n=%d) = %v, want context.Canceled", n, err)
		}
	}
}

// TestDoDeadlineBudget: WithDeadlineBudget must impose a per-call
// deadline even under a background parent context.
func TestDoDeadlineBudget(t *testing.T) {
	s := smallSystem(t)
	req := testQuery(s)
	if _, err := s.Do(context.Background(), req, WithDeadlineBudget(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ns budget = %v, want context.DeadlineExceeded", err)
	}
}

// TestDoBatchParallelMatchesSerial runs a mixed batch under -race: the
// bounded pool must return, positionally, exactly what one-at-a-time Do
// returns.
func TestDoBatchParallelMatchesSerial(t *testing.T) {
	s := smallSystem(t)
	ctx := context.Background()
	q := testQuery(s)
	loc := q.Locations[0]
	reqs := []Request{
		q,
		ReverseRequest(loc, q.Start, q.Duration, q.Prob),
		MultiRequest([]Location{loc, {Lat: loc.Lat + 0.01, Lng: loc.Lng}}, q.Start, q.Duration, q.Prob),
		RouteRequest(loc, Location{Lat: loc.Lat + 0.02, Lng: loc.Lng + 0.02}, q.Start),
		{Kind: KindReach}, // invalid: no location — errors positionally
		q,
	}

	batch := s.DoBatch(ctx, reqs, WithBatchWorkers(4))
	if len(batch) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(batch), len(reqs))
	}
	for i, req := range reqs {
		want, wantErr := s.Do(ctx, req)
		got := batch[i]
		if (wantErr == nil) != (got.Err == nil) {
			t.Fatalf("request %d: batch err %v, serial err %v", i, got.Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(want.SegmentIDs, got.Region.SegmentIDs) {
			t.Fatalf("request %d: batch and serial answers differ", i)
		}
	}
}

// TestDoBatchSharingMatchesIndependent: a duplicate-heavy batch — same
// (kind, location, start, window), different probabilities — must return,
// for every algorithm, exactly what independent Do calls return, and the
// same again with sharing disabled. Runs under -race in CI, so it also
// proves the shared plans race-free across the batch worker pool.
func TestDoBatchSharingMatchesIndependent(t *testing.T) {
	s := smallSystem(t)
	ctx := context.Background()
	q := testQuery(s)
	loc := q.Locations[0]
	loc2 := Location{Lat: loc.Lat + 0.01, Lng: loc.Lng + 0.01}
	probs := []float64{0.1, 0.2, 0.35, 0.5}

	build := func(k Kind) []Request {
		var reqs []Request
		for _, p := range probs {
			r := Request{Kind: k, Locations: []Location{loc}, Start: q.Start, Duration: q.Duration, Prob: p}
			if k == KindMulti {
				r.Locations = []Location{loc, loc2}
			}
			reqs = append(reqs, r)
		}
		// A second copy of every request: identical probs must share too.
		return append(reqs, reqs...)
	}

	cases := []struct {
		name string
		reqs []Request
		opts []Option
	}{
		{"reach-bounded", build(KindReach), nil},
		{"reach-exhaustive", build(KindReach), []Option{WithAlgorithm(AlgoExhaustive)}},
		{"reverse", build(KindReverse), nil},
		{"reverse-exhaustive", build(KindReverse), []Option{WithAlgorithm(AlgoExhaustive)}},
		{"multi-mqmb", build(KindMulti), nil},
		{"multi-sequential", build(KindMulti), []Option{WithAlgorithm(AlgoSequential)}},
	}
	groups0 := s.SharingStats().BatchGroups
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shared := s.DoBatch(ctx, tc.reqs, tc.opts...)
			unshared := s.DoBatch(ctx, tc.reqs, append([]Option{WithBatchSharing(false)}, tc.opts...)...)
			for i, req := range tc.reqs {
				want, err := s.Do(ctx, req, tc.opts...)
				if err != nil {
					t.Fatalf("request %d independent: %v", i, err)
				}
				for which, got := range map[string]BatchResult{"shared": shared[i], "unshared": unshared[i]} {
					if got.Err != nil {
						t.Fatalf("request %d %s: %v", i, which, got.Err)
					}
					if !reflect.DeepEqual(want.SegmentIDs, got.Region.SegmentIDs) {
						t.Fatalf("request %d %s: segments differ from independent Do", i, which)
					}
					if !reflect.DeepEqual(want.Probabilities, got.Region.Probabilities) {
						t.Fatalf("request %d %s: probabilities differ from independent Do", i, which)
					}
				}
			}
		})
	}
	if got := s.SharingStats(); got.BatchGroups <= groups0 || got.QueriesCoalesced == 0 {
		t.Fatalf("sharing counters did not advance: %+v", got)
	}
}

// TestDoBatchRouteGroupSharing: identical route requests share one
// journey computation; every member owns an equal, independent copy.
func TestDoBatchRouteGroupSharing(t *testing.T) {
	s := smallSystem(t)
	q := testQuery(s)
	from := q.Locations[0]
	to := Location{Lat: from.Lat + 0.02, Lng: from.Lng + 0.02}
	req := RouteRequest(from, to, q.Start)
	reqs := []Request{req, req, req}

	want, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	batch := s.DoBatch(context.Background(), reqs)
	for i, r := range batch {
		if r.Err != nil {
			t.Fatalf("route %d: %v", i, r.Err)
		}
		if !reflect.DeepEqual(want.SegmentIDs, r.Region.SegmentIDs) {
			t.Fatalf("route %d differs from independent Do", i)
		}
	}
	// Clones must be independent slices, not views of the same array.
	if &batch[0].Region.SegmentIDs[0] == &batch[1].Region.SegmentIDs[0] {
		t.Fatal("route group members share one SegmentIDs array")
	}
}

// TestDoBatchBudgetedRequestsStayIndependent: WithDeadlineBudget is a
// per-query guarantee, so budgeted requests bypass grouping — each gets
// its own budget exactly as independent execution would.
func TestDoBatchBudgetedRequestsStayIndependent(t *testing.T) {
	s := smallSystem(t)
	req := testQuery(s)
	reqs := []Request{req, req}
	before := s.SharingStats().BatchGroups
	for i, r := range s.DoBatch(context.Background(), reqs, WithDeadlineBudget(time.Minute)) {
		if r.Err != nil {
			t.Fatalf("budgeted request %d: %v", i, r.Err)
		}
	}
	if got := s.SharingStats().BatchGroups; got != before {
		t.Fatalf("budgeted duplicates formed a shared group (%d -> %d)", before, got)
	}
}

// TestDoBatchGroupCancellation: a cancellation landing inside a group's
// shared plan reclaims the whole group — every member reports
// context.Canceled, none hangs with a partial answer.
func TestDoBatchGroupCancellation(t *testing.T) {
	s := smallSystem(t)
	q := testQuery(s)
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = q
		reqs[i].Prob = 0.1 + 0.05*float64(i) // one group, eight thresholds
	}
	// Three polls land the cancel inside the plan's bounding phase (the
	// batch loop checks once, then each bounding round checks).
	for i, r := range s.DoBatch(cancelAfterN(3), reqs, WithBatchWorkers(1)) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("group member %d after mid-plan cancel = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestDoBatchCancellation: a cancelled batch context marks every
// unfinished request with context.Canceled.
func TestDoBatchCancellation(t *testing.T) {
	s := smallSystem(t)
	req := testQuery(s)
	reqs := []Request{req, req, req, req}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range s.DoBatch(ctx, reqs, WithBatchWorkers(2)) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d after pre-cancel = %v, want context.Canceled", i, r.Err)
		}
	}

	// Mid-batch: the shared Err budget lets a prefix of checkpoints pass,
	// then every later request must fail with Canceled — none may hang or
	// return a different error.
	for i, r := range s.DoBatch(cancelAfterN(10), reqs, WithBatchWorkers(2)) {
		if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d after mid-batch cancel = %v", i, r.Err)
		}
	}
}

// TestWarmEndOfDaySlotCap: warming a window that crosses midnight must
// stop at the last slot of the day — exactly the slots queries can touch
// — rather than precomputing wrapped out-of-range slots.
func TestWarmEndOfDaySlotCap(t *testing.T) {
	// A private small world: the shared test system's Con-Index cache
	// would pollute the row counts.
	sys, err := NewSystem(CityConfig{
		OriginLat: 22.50, OriginLng: 114.00,
		Rows: 5, Cols: 5,
		SpacingMeters: 1000,
		LocalFraction: 0.2,
		Seed:          71,
	}, FleetConfig{Taxis: 20, Days: 3, Seed: 72}, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	con := sys.Engine().ConIndex()
	slotSec := con.SlotSeconds()
	nSeg := sys.Network().NumSegments()

	// 23:40 + 2h crosses midnight: only the slots up to NumSlots-1 may
	// be warmed (here 23:40..23:55 → 4 slots).
	start := 23*time.Hour + 40*time.Minute
	if err := sys.WarmCtx(context.Background(), start, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	lo := int(start.Seconds()) / slotSec
	wantSlots := con.NumSlots() - lo
	if got, want := con.CachedLists(), 2*wantSlots*nSeg; got != want {
		t.Fatalf("end-of-day warm cached %d rows, want %d (%d slots x %d segments x near+far)",
			got, want, wantSlots, nSeg)
	}

	// A start past the last slot start must warm nothing new; so must a
	// start at exactly midnight-adjacent hi < lo edge.
	before := con.CachedLists()
	warmWindow(t, sys, 24*time.Hour-time.Nanosecond, time.Hour)
	if got := con.CachedLists(); got != before {
		// The last slot was already warm from the first call; nothing new
		// may appear.
		t.Fatalf("out-of-range warm added rows: %d -> %d", before, got)
	}
}

// TestWarmCancellation: WarmCtx must stop early under a cancelled
// context (reach-side of the satellite requirement; the conindex side is
// tested in internal/conindex).
func TestWarmCancellation(t *testing.T) {
	s := smallSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// An unwarmed early-morning window: no other test touches 2h.
	if err := s.WarmCtx(ctx, 2*time.Hour, 10*time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("WarmCtx with cancelled ctx = %v, want context.Canceled", err)
	}
}
