package streach

import (
	"context"
	"errors"
	"reflect"
	"sync"
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

// TestDoRejectsBadRequests: every request of the invalid block — bad
// kinds, locations, algorithm pairings, thresholds and windows — is
// refused with InvalidRequest.
func TestDoRejectsBadRequests(t *testing.T) {
	s := smallSystem(t)
	checkOracle(t, reference(t), serial(s), requestMatrix(s, 11*time.Hour).invalid)
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
	if d := diffRegion(serial, def); d != "" {
		t.Fatalf("WithVerifyWorkers(1) changed the answer: %s", d)
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

	// The overrides must not stick to the system.
	again, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffRegion(again, def); d != "" {
		t.Fatalf("per-query options leaked into later calls: %s", d)
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

// TestDoDeadlineBudget: the context's deadline is the query's one
// budget. An expired deadline fails Do with the bare
// context.DeadlineExceeded, which CodeOf classifies as Timeout; a
// deadlined request still takes its plan from the store, so a duplicate
// under a live deadline is a plan hit.
func TestDoDeadlineBudget(t *testing.T) {
	s := variant(t, vcfg{})
	req := testQuery(s)
	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-expired.Done()
	if _, err := s.Do(expired, req); err != context.DeadlineExceeded || CodeOf(err) != Timeout {
		t.Fatalf("expired deadline = %v (code %v), want the bare context.DeadlineExceeded, Timeout", err, CodeOf(err))
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	before := s.SharingStats()
	for i := range 2 {
		if _, err := s.Do(ctx, req); err != nil {
			t.Fatalf("deadlined request %d: %v", i, err)
		}
	}
	if got := s.SharingStats(); got.PlanCacheMisses-before.PlanCacheMisses != 1 || got.PlanCacheHits-before.PlanCacheHits != 1 {
		t.Fatalf("two deadlined duplicates: %+v -> %+v, want one miss and one hit", before, got)
	}
}

// doAll answers reqs through Do, each request on a goroutine of its own,
// and returns the outcomes positionally.
func doAll(ctx context.Context, s *System, reqs []Request, opts ...Option) []outcome {
	out := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].Region, out[i].Err = s.Do(ctx, req, opts...)
		}()
	}
	wg.Wait()
	return out
}

// TestDoBatchParallelMatchesSerial runs the request matrix as a batch of
// concurrent Do calls under -race: each must return exactly what
// one-at-a-time Do returns, errors included.
func TestDoBatchParallelMatchesSerial(t *testing.T) {
	s := smallSystem(t)
	checkOracle(t, reference(t), concurrent(s), requestMatrix(s, 11*time.Hour).full)

	// Routes are outside the matrix: one rides a mixed concurrent batch
	// and must match serial Do by position, journey included.
	q := testQuery(s)
	loc := q.Locations[0]
	mixed := []Request{
		q,
		RouteRequest(loc, Location{Lat: loc.Lat + 0.02, Lng: loc.Lng + 0.02}, q.Start),
		ReverseRequest(loc, q.Start, q.Duration, q.Prob),
	}
	for i, got := range doAll(context.Background(), s, mixed) {
		want, err := s.Do(context.Background(), mixed[i])
		if err != nil || got.Err != nil {
			t.Fatalf("request %d: concurrent err %v, serial err %v", i, got.Err, err)
		}
		if d := diffRegion(got.Region, want); d != "" || !reflect.DeepEqual(got.Region.Route, want.Route) {
			t.Fatalf("request %d: concurrent and serial answers differ (%s)", i, d)
		}
		if mixed[i].Kind == KindRoute && (want.Route == nil || len(want.Route.SegmentIDs) == 0) {
			t.Fatal("the route in the mixed batch has no journey")
		}
	}
}

// TestDoBatchSharingMatchesIndependent: a duplicate-heavy batch of
// concurrent Do calls — same (kind, location, start, window), different
// probabilities, every request twice — must return, for every
// algorithm, exactly what independent Do calls return, and the same
// again with sharing disabled. On a system with the default plan store
// each valid shape is built exactly once, however the calls interleave.
// Runs under -race in CI, so it also proves the shared plans race-free.
func TestDoBatchSharingMatchesIndependent(t *testing.T) {
	s := variant(t, vcfg{})
	names := map[string]string{"reach": "reach-bounded", "reach-es": "reach-exhaustive",
		"reverse-es": "reverse-exhaustive", "multi": "multi-mqmb", "multi-seq": "multi-sequential"}
	for _, reqs := range byKind(requestMatrix(s, 11*time.Hour).full) {
		name := reqs[0].kind
		if n, ok := names[name]; ok {
			name = n
		}
		t.Run(name, func(t *testing.T) {
			misses := s.SharingStats().PlanCacheMisses
			checkOracle(t, reference(t), concurrent(s), reqs)
			if got := s.SharingStats().PlanCacheMisses - misses; !reqs[0].invalid && got != 1 {
				t.Fatalf("%d plans built for one shape", got)
			}
			checkOracle(t, reference(t), concurrent(s, WithBatchSharing(false)), reqs)
		})
	}
}

// TestDoBatchGroupCancellation: a cancellation landing inside the plan
// build that concurrent duplicates share fails every one of them — each
// reports context.Canceled, none hangs with a partial answer.
func TestDoBatchGroupCancellation(t *testing.T) {
	s := smallSystem(t)
	q := testQuery(s)
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = q
		reqs[i].Prob = 0.1 + 0.05*float64(i) // one shape, eight thresholds
	}
	// Three polls pass: at most three requests get past Do's own check,
	// and the one that builds meets the cancel in its bounding phase.
	for i, r := range doAll(cancelAfterN(3), s, reqs) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("request %d after mid-plan cancel = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestDoBatchCancellation: a cancelled context marks every unfinished
// request of a concurrent batch with context.Canceled.
func TestDoBatchCancellation(t *testing.T) {
	s := smallSystem(t)
	req := testQuery(s)
	reqs := []Request{req, req, req, req}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range doAll(ctx, s, reqs) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d after pre-cancel = %v, want context.Canceled", i, r.Err)
		}
	}

	// Mid-batch: the shared Err budget lets a prefix of checkpoints pass,
	// then every later request must fail with Canceled — none may hang or
	// return a different error.
	for i, r := range doAll(cancelAfterN(10), s, reqs) {
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
