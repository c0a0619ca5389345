package shard

import (
	"testing"
	"time"

	"streach/internal/conindex"
	"streach/internal/core"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/traj"
)

// TestClusterZeroCandidates: a plan whose bounding phase yields no
// trace-back candidates (max region == min region) must scatter as a
// no-op — in particular the multi-core worker-budget split must not
// divide by the zero active-shard count — and still answer identically
// to the unsharded engine. A single-segment network guarantees the
// degenerate regions deterministically.
func TestClusterZeroCandidates(t *testing.T) {
	b := roadnet.NewBuilder()
	if _, err := b.AddRoad(geo.Polyline{
		{Lat: 22.50, Lng: 114.00},
		{Lat: 22.505, Lng: 114.00},
	}, roadnet.Secondary, true); err != nil {
		t.Fatal(err)
	}
	net := b.Build()
	ds := &traj.Dataset{
		BaseDate: time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC),
		Days:     2,
		Matched: []traj.MatchedTrajectory{
			{Taxi: 1, Day: 0, Visits: []traj.Visit{
				{Segment: 0, EnterMs: int32(11 * time.Hour / time.Millisecond), ExitMs: int32(11*time.Hour/time.Millisecond) + 60000, Speed: 8},
			}},
			{Taxi: 2, Day: 1, Visits: []traj.Visit{
				{Segment: 0, EnterMs: int32(11 * time.Hour / time.Millisecond), ExitMs: int32(11*time.Hour/time.Millisecond) + 60000, Speed: 8},
			}},
		},
	}
	st, err := stindex.Build(net, ds, stindex.Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	con, err := conindex.Build(net, ds, conindex.Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(st, con, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(st, con, core.Options{}, 4) // clamps to 1 segment -> 1 shard
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{
		Location: net.Segment(0).Midpoint(),
		Start:    11 * time.Hour,
		Duration: 10 * time.Minute,
	}
	pl, err := c.PlanReach(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, err := pl.ResultAt(bg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.Evaluated != 0 {
		t.Fatalf("expected a zero-candidate plan, evaluated %d", got.Metrics.Evaluated)
	}
	want, err := oneShot(bg, eng.PlanReach, core.Query{Location: q.Location, Start: q.Start, Duration: q.Duration, Prob: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "zero-candidates", got, want)
}
