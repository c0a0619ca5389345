package core

import (
	"testing"
	"time"

	"streach/internal/conindex"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/traj"
)

// chainWorld hand-builds the smallest world where every reachability
// probability can be computed by hand: a one-way chain A -> B -> C of
// 500 m segments (IDs 0, 1, 2) and four days of hand-written visits.
//
// Start window: T = 10:00, Δt = 5 min (slot 120), L = 10 min.
//
//	day 0: taxi 1 drives A (10:00:30), B (10:01:30), C (10:02:30)
//	day 1: taxi 1 drives A (10:00:30), B (10:01:30)
//	day 2: taxi 2 touches A (10:00:10) only
//	day 3: taxi 3 is at B (10:01:00) but never at A
//
// Per Eq 3.1 (m = 4): probability(A) = 3/4, probability(B) = 2/4,
// probability(C) = 1/4.
func chainWorld(t *testing.T) (*roadnet.Network, *traj.Dataset) {
	t.Helper()
	b := roadnet.NewBuilder()
	o := geo.Point{Lat: 22.5, Lng: 114.0}
	for i := 0; i < 3; i++ {
		from := geo.Offset(o, float64(i)*500, 0)
		to := geo.Offset(o, float64(i+1)*500, 0)
		if _, err := b.AddRoad(geo.Polyline{from, to}, roadnet.Primary, true); err != nil {
			t.Fatal(err)
		}
	}
	net := b.Build()

	ms := func(h, m, s int) int32 { return int32(((h*60+m)*60 + s) * 1000) }
	visit := func(seg roadnet.SegmentID, h, m, s int) traj.Visit {
		return traj.Visit{Segment: seg, EnterMs: ms(h, m, s), ExitMs: ms(h, m, s) + 50_000, Speed: 10}
	}
	ds := &traj.Dataset{
		BaseDate: time.Date(2014, 11, 1, 0, 0, 0, 0, time.UTC),
		Days:     4,
		Matched: []traj.MatchedTrajectory{
			{Taxi: 1, Day: 0, Visits: []traj.Visit{
				visit(0, 10, 0, 30), visit(1, 10, 1, 30), visit(2, 10, 2, 30),
			}},
			{Taxi: 1, Day: 1, Visits: []traj.Visit{
				visit(0, 10, 0, 30), visit(1, 10, 1, 30),
			}},
			{Taxi: 2, Day: 2, Visits: []traj.Visit{
				visit(0, 10, 0, 10),
			}},
			{Taxi: 3, Day: 3, Visits: []traj.Visit{
				visit(1, 10, 1, 0),
			}},
		},
	}
	return net, ds
}

func chainEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	net, ds := chainWorld(t)
	st, err := stindex.Build(net, ds, stindex.Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	con, err := conindex.Build(net, ds, conindex.Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(st, con, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func chainQuery(prob float64) Query {
	return Query{
		Location: geo.Point{Lat: 22.5, Lng: 114.0022}, // on segment A
		Start:    10 * time.Hour,
		Duration: 10 * time.Minute,
		Prob:     prob,
	}
}

func TestHandComputedProbabilities(t *testing.T) {
	e := chainEngine(t, Options{VerifyAll: true})
	lo, hi := e.slotWindow(10*time.Hour, 10*time.Minute)
	pr, err := e.newProbe(bg, []roadnet.SegmentID{0}, lo, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	w := pr.worker()
	want := map[roadnet.SegmentID]float64{0: 0.75, 1: 0.5, 2: 0.25}
	for seg, expected := range want {
		got, err := w.prob(seg)
		if err != nil {
			t.Fatal(err)
		}
		if got != expected {
			t.Fatalf("probability(%d) = %v, want %v", seg, got, expected)
		}
	}
}

func TestHandComputedRegions(t *testing.T) {
	e := chainEngine(t, Options{VerifyAll: true})
	cases := []struct {
		prob float64
		want []roadnet.SegmentID
	}{
		{0.20, []roadnet.SegmentID{0, 1, 2}},
		{0.25, []roadnet.SegmentID{0, 1, 2}},
		{0.30, []roadnet.SegmentID{0, 1}},
		{0.50, []roadnet.SegmentID{0, 1}},
		{0.60, []roadnet.SegmentID{0}},
		{0.75, []roadnet.SegmentID{0}},
		{0.80, nil},
	}
	for _, c := range cases {
		res, err := oneShot(bg, e.PlanReach, chainQuery(c.prob))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Segments) != len(c.want) {
			t.Fatalf("Prob=%v: region %v, want %v", c.prob, res.Segments, c.want)
		}
		for i := range c.want {
			if res.Segments[i] != c.want[i] {
				t.Fatalf("Prob=%v: region %v, want %v", c.prob, res.Segments, c.want)
			}
		}
	}
}

func TestHandComputedESAgrees(t *testing.T) {
	e := chainEngine(t, Options{VerifyAll: true})
	for _, prob := range []float64{0.2, 0.5, 0.75} {
		es, err := oneShot(bg, e.PlanReachES, chainQuery(prob))
		if err != nil {
			t.Fatal(err)
		}
		sq, err := oneShot(bg, e.PlanReach, chainQuery(prob))
		if err != nil {
			t.Fatal(err)
		}
		if len(es.Segments) != len(sq.Segments) {
			t.Fatalf("Prob=%v: ES %v vs SQMB %v", prob, es.Segments, sq.Segments)
		}
		for i := range es.Segments {
			if es.Segments[i] != sq.Segments[i] {
				t.Fatalf("Prob=%v: ES %v vs SQMB %v", prob, es.Segments, sq.Segments)
			}
		}
	}
}

func TestHandComputedReverse(t *testing.T) {
	// Reverse question from C: from where can C be reached?
	// Start window at each candidate r: [10:00, 10:05]; target window at
	// C: [10:00, 10:10].
	//  prob(A -> C): day 0 only (taxi 1 at A in window and at C) = 1/4.
	//  prob(B -> C): day 0 (taxi 1 at B 10:01:30, within start slot... the
	//  start slot is [10:00, 10:05], so yes) = 1/4.
	//  prob(C -> C): day 0 = 1/4.
	e := chainEngine(t, Options{VerifyAll: true})
	q := Query{
		Location: geo.Point{Lat: 22.5, Lng: 114.0122}, // on segment C
		Start:    10 * time.Hour,
		Duration: 10 * time.Minute,
		Prob:     0.25,
	}
	res, err := oneShot(bg, e.PlanReverse, q)
	if err != nil {
		t.Fatal(err)
	}
	want := []roadnet.SegmentID{0, 1, 2}
	if len(res.Segments) != len(want) {
		t.Fatalf("reverse region = %v, want %v", res.Segments, want)
	}
	q.Prob = 0.3
	res, err = oneShot(bg, e.PlanReverse, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 0 {
		t.Fatalf("reverse region at Prob=0.3 should be empty, got %v", res.Segments)
	}
}

func TestHandComputedRoadLength(t *testing.T) {
	e := chainEngine(t, Options{VerifyAll: true})
	res, err := oneShot(bg, e.PlanReach, chainQuery(0.5))
	if err != nil {
		t.Fatal(err)
	}
	// Segments A and B, 500 m each.
	if res.Metrics.RoadKm < 0.99 || res.Metrics.RoadKm > 1.01 {
		t.Fatalf("RoadKm = %v, want ~1.0", res.Metrics.RoadKm)
	}
}
