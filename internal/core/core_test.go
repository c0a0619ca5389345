package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"streach/internal/conindex"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/traj"
)

// bg is the background context used by tests that don't exercise
// cancellation.
var bg = context.Background()

// oneShot answers one query the way the facade does: the threshold is
// checked first, then the plan is built, read once at prob and closed.
func oneShot[Q Query | MultiQuery](ctx context.Context, plan func(context.Context, Q, ...PlanOption) (*SharedPlan, error), q Q, prob float64) (*Result, error) {
	if err := ValidateProb(prob); err != nil {
		return nil, err
	}
	p, err := plan(ctx, q)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.ResultAt(ctx, prob)
}

// boundingRegion returns the SQMB bounding region of kind (Far for the
// maximum region, Near for the minimum) from q's snapped location.
func boundingRegion(e *Engine, q Query, kind conindex.Kind) ([]roadnet.SegmentID, error) {
	r0, ok := e.st.SnapLocation(q.Location)
	if !ok {
		return nil, fmt.Errorf("no road segment near %v", q.Location)
	}
	reg, err := e.boundingRegionPin(bg, e.con.NewPin(), kind, []roadnet.SegmentID{r0}, q.Start, q.Duration)
	if err != nil {
		return nil, err
	}
	defer e.putRegion(reg)
	return slices.Clone(reg.segs), nil
}

// fixture is the shared test world: a mid-sized city with a dense-enough
// fleet that central segments see traffic in most 5-minute slots.
type fixture struct {
	net    *roadnet.Network
	ds     *traj.Dataset
	st     *stindex.Index
	con    *conindex.Index
	center geo.Point
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		raw, err := roadnet.Generate(roadnet.GenerateConfig{
			Origin:        geo.Point{Lat: 22.50, Lng: 114.00},
			Rows:          12,
			Cols:          12,
			SpacingMeters: 1000,
			LocalFraction: 0.4,
			Seed:          11,
		})
		if err != nil {
			fixErr = err
			return
		}
		net, err := roadnet.Resegment(raw, 500)
		if err != nil {
			fixErr = err
			return
		}
		ds, err := traj.Simulate(net, traj.SimConfig{
			Taxis: 180, Days: 8, Profile: traj.DefaultSpeedProfile(), Seed: 12,
			DaySpeedJitter: 0.12,
		})
		if err != nil {
			fixErr = err
			return
		}
		st, err := stindex.Build(net, ds, stindex.Config{SlotSeconds: 300, PoolPages: 512})
		if err != nil {
			fixErr = err
			return
		}
		con, err := conindex.Build(net, ds, conindex.Config{SlotSeconds: 300})
		if err != nil {
			fixErr = err
			return
		}
		fix = &fixture{
			net: net, ds: ds, st: st, con: con,
			center: busiestLocation(net, ds, 11*time.Hour),
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// busiestLocation returns the midpoint of the segment seen on the most
// distinct days during the 5-minute slot starting at tod — the kind of
// busy downtown location the paper's evaluation queries from.
func busiestLocation(net *roadnet.Network, ds *traj.Dataset, tod time.Duration) geo.Point {
	lo := tod
	hi := tod + 5*time.Minute
	days := map[roadnet.SegmentID]map[traj.Day]bool{}
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		for _, v := range mt.Visits {
			enter := time.Duration(v.EnterMs) * time.Millisecond
			if enter >= lo && enter < hi {
				if days[v.Segment] == nil {
					days[v.Segment] = map[traj.Day]bool{}
				}
				days[v.Segment][mt.Day] = true
			}
		}
	}
	best := roadnet.SegmentID(0)
	bestN := -1
	for seg, d := range days {
		if len(d) > bestN {
			best, bestN = seg, len(d)
		}
	}
	return net.Segment(best).Midpoint()
}

func newEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	f := getFixture(t)
	e, err := NewEngine(f.st, f.con, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func baseQuery(f *fixture) Query {
	return Query{
		Location: f.center,
		Start:    11 * time.Hour,
		Duration: 10 * time.Minute,
	}
}

func toSet(ids []roadnet.SegmentID) map[roadnet.SegmentID]bool {
	m := make(map[roadnet.SegmentID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func jaccard(a, b map[roadnet.SegmentID]bool) float64 {
	inter := 0
	for s := range a {
		if b[s] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func TestNewEngineValidations(t *testing.T) {
	f := getFixture(t)
	if _, err := NewEngine(nil, f.con, Options{}); err == nil {
		t.Fatal("nil ST-Index should error")
	}
	if _, err := NewEngine(f.st, nil, Options{}); err == nil {
		t.Fatal("nil Con-Index should error")
	}
	// Granularity mismatch.
	con2, err := conindex.Build(f.net, f.ds, conindex.Config{SlotSeconds: 600})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(f.st, con2, Options{}); err == nil {
		t.Fatal("granularity mismatch should error")
	}
}

func TestQueryValidation(t *testing.T) {
	e := newEngine(t, Options{})
	f := getFixture(t)
	bad := []struct {
		q    Query
		prob float64
	}{
		{Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}, 0},
		{Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}, 1.5},
		{Query{Location: f.center, Start: 11 * time.Hour, Duration: 0}, 0.2},
		{Query{Location: f.center, Start: -time.Hour, Duration: 10 * time.Minute}, 0.2},
		{Query{Location: f.center, Start: 25 * time.Hour, Duration: 10 * time.Minute}, 0.2},
	}
	for i, b := range bad {
		if _, err := oneShot(bg, e.PlanReach, b.q, b.prob); err == nil {
			t.Fatalf("query %d should fail validation", i)
		}
		if _, err := oneShot(bg, e.PlanReachES, b.q, b.prob); err == nil {
			t.Fatalf("ES query %d should fail validation", i)
		}
	}
	// Location far from any road.
	far := Query{Location: geo.Point{Lat: 0, Lng: 0}, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	if _, err := oneShot(bg, e.PlanReach, far, 0.2); err != nil {
		// Snap still finds the nearest segment even from far away; both
		// behaviours (snap or error) are acceptable, but must not panic.
		t.Logf("far snap errored: %v", err)
	}
}

func TestSQMBReturnsNonEmptyRegion(t *testing.T) {
	e := newEngine(t, Options{})
	f := getFixture(t)
	res, err := oneShot(bg, e.PlanReach, baseQuery(f), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) == 0 {
		t.Fatal("central 11:00 query should find a reachable region")
	}
	if len(res.Starts) != 1 {
		t.Fatalf("Starts = %v", res.Starts)
	}
	if res.Metrics.MaxRegion == 0 || res.Metrics.MaxRegion < len(res.Segments) {
		t.Fatalf("max region %d should cover result %d", res.Metrics.MaxRegion, len(res.Segments))
	}
	if res.Metrics.RoadKm <= 0 {
		t.Fatal("result should have positive road length")
	}
	if res.Metrics.Elapsed <= 0 {
		t.Fatal("elapsed should be positive")
	}
}

func TestResultWithinMaxBoundingRegion(t *testing.T) {
	e := newEngine(t, Options{})
	f := getFixture(t)
	q := baseQuery(f)
	res, err := oneShot(bg, e.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	maxReg, err := boundingRegion(e, q, conindex.Far)
	if err != nil {
		t.Fatal(err)
	}
	maxSet := toSet(maxReg)
	for _, s := range res.Segments {
		if !maxSet[s] {
			t.Fatalf("result segment %d outside the maximum bounding region", s)
		}
	}
}

func TestMinRegionSubsetOfMaxRegion(t *testing.T) {
	e := newEngine(t, Options{})
	f := getFixture(t)
	q := baseQuery(f)
	maxReg, err := boundingRegion(e, q, conindex.Far)
	if err != nil {
		t.Fatal(err)
	}
	minReg, err := boundingRegion(e, q, conindex.Near)
	if err != nil {
		t.Fatal(err)
	}
	maxSet := toSet(maxReg)
	for _, s := range minReg {
		if !maxSet[s] {
			t.Fatalf("min-region segment %d not in max region", s)
		}
	}
	if len(minReg) >= len(maxReg) {
		t.Fatalf("min region (%d) should be smaller than max region (%d)", len(minReg), len(maxReg))
	}
}

func TestESAgreesWithVerifyAllTBS(t *testing.T) {
	f := getFixture(t)
	exact := newEngine(t, Options{VerifyAll: true})
	q := baseQuery(f)
	esRes, err := oneShot(bg, exact.PlanReachES, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	tbsRes, err := oneShot(bg, exact.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(esRes.Segments) == 0 {
		t.Fatal("ES found nothing; fixture too sparse for this test")
	}
	esSet := toSet(esRes.Segments)
	tbsSet := toSet(tbsRes.Segments)
	// ES verifies everything within the worst-case radius, so it finds
	// every qualifier the bounded verify-all TBS finds (TBS ⊆ ES, up to
	// the rare segment whose observed max speed beats the ES free-flow
	// bound).
	missing := 0
	for s := range tbsSet {
		if !esSet[s] {
			missing++
		}
	}
	if frac := float64(missing) / float64(len(tbsSet)); frac > 0.05 {
		t.Fatalf("%.0f%% of verify-all SQMB+TBS result missing from ES (missing %d of %d)",
			frac*100, missing, len(tbsSet))
	}
}

func TestPaperModeSupersetOfVerifyAll(t *testing.T) {
	f := getFixture(t)
	q := baseQuery(f)
	paper := newEngine(t, Options{})
	exact := newEngine(t, Options{VerifyAll: true})
	pres, err := oneShot(bg, paper.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	eres, err := oneShot(bg, exact.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// In paper mode every region segment is either verified (qualifiers
	// included) or admitted unverified, so the exact qualifier set must
	// be contained in the paper-mode result; and the paper-mode result
	// must stay inside the maximum bounding region.
	paperSet := toSet(pres.Segments)
	for _, s := range eres.Segments {
		if !paperSet[s] {
			t.Fatalf("exact qualifier %d missing from paper-mode result", s)
		}
	}
	maxReg, err := boundingRegion(paper, q, conindex.Far)
	if err != nil {
		t.Fatal(err)
	}
	maxSet := toSet(maxReg)
	for _, s := range pres.Segments {
		if !maxSet[s] {
			t.Fatalf("paper-mode segment %d outside the max bounding region", s)
		}
	}
}

func TestSQMBCheaperThanES(t *testing.T) {
	f := getFixture(t)
	q := baseQuery(f)
	e := newEngine(t, Options{})
	esRes, err := oneShot(bg, e.PlanReachES, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sqRes, err := oneShot(bg, e.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if sqRes.Metrics.Evaluated >= esRes.Metrics.Evaluated {
		t.Fatalf("SQMB+TBS evaluated %d segments, ES %d: index should reduce verification",
			sqRes.Metrics.Evaluated, esRes.Metrics.Evaluated)
	}
}

func TestRegionMonotoneInDuration(t *testing.T) {
	f := getFixture(t)
	exact := newEngine(t, Options{VerifyAll: true})
	q := baseQuery(f)
	q.Duration = 5 * time.Minute
	small, err := oneShot(bg, exact.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	q.Duration = 15 * time.Minute
	large, err := oneShot(bg, exact.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	largeSet := toSet(large.Segments)
	missing := 0
	for _, s := range small.Segments {
		if !largeSet[s] {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d segments reachable in 5 min but not 15 min", missing)
	}
	if large.Metrics.RoadKm < small.Metrics.RoadKm {
		t.Fatal("road length should grow with duration")
	}
}

func TestRegionMonotoneInProb(t *testing.T) {
	f := getFixture(t)
	exact := newEngine(t, Options{VerifyAll: true})
	q := baseQuery(f)
	loose, err := oneShot(bg, exact.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := oneShot(bg, exact.PlanReach, q, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	looseSet := toSet(loose.Segments)
	for _, s := range strict.Segments {
		if !looseSet[s] {
			t.Fatalf("segment %d reachable at 80%% but not 20%%", s)
		}
	}
	if strict.Metrics.RoadKm > loose.Metrics.RoadKm {
		t.Fatal("road length should shrink as Prob rises")
	}
}

func TestIOAccountedPerQuery(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	q := baseQuery(f)
	res, err := oneShot(bg, e.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Time-list reads are served by the decoded cache first and the
	// buffer pool beneath it; a query must register on at least one tier.
	total := res.Metrics.IO.Hits + res.Metrics.IO.Misses +
		res.Metrics.TLCacheHits + res.Metrics.TLCacheMisses
	if total == 0 {
		t.Fatal("query should touch the time-list storage tiers")
	}
	if res.Metrics.Evaluated == 0 {
		t.Fatal("query should verify some segments")
	}
}

func TestMQMBMatchesSequentialUnion(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	locs := []geo.Point{
		f.center,
		geo.Offset(f.center, 1800, 0),
		geo.Offset(f.center, 0, 1800),
	}
	mq := MultiQuery{Locations: locs, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	mres, err := oneShot(bg, e.PlanMulti, mq, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := oneShot(bg, e.PlanMultiSequential, mq, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mres.Segments) == 0 || len(sres.Segments) == 0 {
		t.Fatal("m-query should find reachable regions")
	}
	j := jaccard(toSet(mres.Segments), toSet(sres.Segments))
	if j < 0.6 {
		t.Fatalf("MQMB vs sequential union Jaccard %.2f (m=%d s=%d)", j, len(mres.Segments), len(sres.Segments))
	}
}

func TestMQMBCheaperThanSequential(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	locs := []geo.Point{
		f.center,
		geo.Offset(f.center, 1200, 600),
		geo.Offset(f.center, -900, 900),
	}
	mq := MultiQuery{Locations: locs, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	mres, err := oneShot(bg, e.PlanMulti, mq, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := oneShot(bg, e.PlanMultiSequential, mq, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Metrics.Evaluated >= sres.Metrics.Evaluated {
		t.Fatalf("MQMB evaluated %d vs sequential %d: overlap elimination should help with clustered locations",
			mres.Metrics.Evaluated, sres.Metrics.Evaluated)
	}
}

func TestMQMBSingleLocationMatchesSQMB(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	q := baseQuery(f)
	sres, err := oneShot(bg, e.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := oneShot(bg, e.PlanMulti, MultiQuery{Locations: []geo.Point{q.Location}, Start: q.Start, Duration: q.Duration}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// MQMB's overlap filter can trim a few frontier segments even with a
	// single location (the paper notes it is slightly different/slower),
	// so require close but not exact agreement.
	if j := jaccard(toSet(sres.Segments), toSet(mres.Segments)); j < 0.85 {
		t.Fatalf("single-location m-query should match s-query, Jaccard %.2f", j)
	}
}

func TestMQMBValidation(t *testing.T) {
	e := newEngine(t, Options{})
	if _, err := oneShot(bg, e.PlanMulti, MultiQuery{Start: 11 * time.Hour, Duration: 10 * time.Minute}, 0.2); err == nil {
		t.Fatal("m-query with no locations should error")
	}
	if _, err := oneShot(bg, e.PlanMultiSequential, MultiQuery{Start: 11 * time.Hour, Duration: 10 * time.Minute}, 0.2); err == nil {
		t.Fatal("sequential with no locations should error")
	}
}

func TestMQMBDeduplicatesStarts(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	mq := MultiQuery{
		Locations: []geo.Point{f.center, f.center, f.center},
		Start:     11 * time.Hour, Duration: 10 * time.Minute,
	}
	res, err := oneShot(bg, e.PlanMulti, mq, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Starts) != 1 {
		t.Fatalf("duplicate locations should collapse to one start, got %d", len(res.Starts))
	}
}

func TestNoOverlapFilterAblation(t *testing.T) {
	f := getFixture(t)
	on := newEngine(t, Options{})
	off := newEngine(t, Options{NoOverlapFilter: true})
	locs := []geo.Point{f.center, geo.Offset(f.center, 1000, 0)}
	mq := MultiQuery{Locations: locs, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	a, err := oneShot(bg, on.PlanMulti, mq, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := oneShot(bg, off.PlanMulti, mq, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Without the filter the unified region can only be equal or larger.
	if b.Metrics.MaxRegion < a.Metrics.MaxRegion {
		t.Fatalf("unfiltered region (%d) smaller than filtered (%d)", b.Metrics.MaxRegion, a.Metrics.MaxRegion)
	}
}

func TestNoVisitedSetTerminates(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{EarlyStop: true, NoVisitedSet: true})
	q := baseQuery(f)
	done := make(chan error, 1)
	go func() {
		_, err := oneShot(bg, e.PlanReach, q, 0.2)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("NoVisitedSet TBS did not terminate within budget")
	}
}

func TestResultContains(t *testing.T) {
	r := &Result{Segments: []roadnet.SegmentID{2, 5, 9}}
	for _, s := range []roadnet.SegmentID{2, 5, 9} {
		if !r.Contains(s) {
			t.Fatalf("Contains(%d) = false", s)
		}
	}
	for _, s := range []roadnet.SegmentID{0, 3, 10} {
		if r.Contains(s) {
			t.Fatalf("Contains(%d) = true", s)
		}
	}
}

func TestRushHourShrinksMaxRegion(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	qNight := baseQuery(f)
	qNight.Start = 3 * time.Hour
	qRush := baseQuery(f)
	qRush.Start = 18 * time.Hour
	night, err := boundingRegion(e, qNight, conindex.Far)
	if err != nil {
		t.Fatal(err)
	}
	rush, err := boundingRegion(e, qRush, conindex.Far)
	if err != nil {
		t.Fatal(err)
	}
	if len(rush) >= len(night) {
		t.Fatalf("rush-hour max region (%d) should be smaller than night (%d)", len(rush), len(night))
	}
}
