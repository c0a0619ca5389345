package mapmatch

import (
	"testing"
	"time"

	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/traj"
)

func testNetwork(t *testing.T) *roadnet.Network {
	t.Helper()
	n, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin:        geo.Point{Lat: 22.5, Lng: 114.0},
		Rows:          6,
		Cols:          6,
		SpacingMeters: 800,
		LocalFraction: 0.4,
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// groundTruth simulates one taxi-day and synthesizes its raw GPS stream.
func groundTruth(t *testing.T, n *roadnet.Network, noise float64) (*traj.MatchedTrajectory, *traj.Trajectory) {
	t.Helper()
	ds, err := traj.Simulate(n, traj.SimConfig{
		Taxis: 1, Days: 1, Profile: traj.FlatSpeedProfile(), Seed: 7,
		ActiveStartSec: 9 * 3600, ActiveEndSec: 10 * 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Matched) == 0 {
		t.Fatal("simulation produced nothing")
	}
	mt := &ds.Matched[0]
	raw := traj.RawFromMatched(n, mt, ds.DayStart(mt.Day), 30*time.Second, noise, 11)
	return mt, raw
}

func TestMatchRecoversGroundTruth(t *testing.T) {
	n := testNetwork(t)
	truth, raw := groundTruth(t, n, 10)
	m := New(n, DefaultConfig())
	got, err := m.Match(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Visits) == 0 {
		t.Fatal("matcher returned no visits")
	}
	// Count how many ground-truth visits appear in the matched output
	// (same segment or its twin; GPS cannot always disambiguate direction
	// on two-way roads).
	matched := map[roadnet.SegmentID]bool{}
	for _, v := range got.Visits {
		matched[v.Segment] = true
	}
	hit := 0
	for _, v := range truth.Visits {
		tw := n.Segment(v.Segment).Reverse
		if matched[v.Segment] || (tw >= 0 && matched[tw]) {
			hit++
		}
	}
	recall := float64(hit) / float64(len(truth.Visits))
	if recall < 0.8 {
		t.Fatalf("matcher recall %.2f too low (%d of %d ground-truth visits)", recall, hit, len(truth.Visits))
	}
}

func TestMatchOutputIsConnected(t *testing.T) {
	n := testNetwork(t)
	_, raw := groundTruth(t, n, 15)
	m := New(n, DefaultConfig())
	got, err := m.Match(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Visits {
		if v.ExitMs < v.EnterMs {
			t.Fatalf("visit %d exits before entering", i)
		}
		if i > 0 && v.EnterMs < got.Visits[i-1].EnterMs {
			t.Fatalf("visit %d out of order", i)
		}
	}
	for i := 1; i < len(got.Visits); i++ {
		prev, cur := got.Visits[i-1], got.Visits[i]
		if cur.EnterMs-prev.ExitMs > 1000 {
			continue // trip gap
		}
		connected := prev.Segment == cur.Segment
		for _, s := range n.Outgoing(prev.Segment) {
			if s == cur.Segment {
				connected = true
			}
		}
		if !connected {
			t.Fatalf("visit %d: %d -> %d not adjacent", i, prev.Segment, cur.Segment)
		}
	}
}

func TestMatchHighNoiseStillWorks(t *testing.T) {
	n := testNetwork(t)
	truth, raw := groundTruth(t, n, 40)
	m := New(n, DefaultConfig())
	got, err := m.Match(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Visits) < len(truth.Visits)/3 {
		t.Fatalf("high-noise match collapsed: %d visits vs truth %d", len(got.Visits), len(truth.Visits))
	}
}

func TestMatchEmptyTrajectory(t *testing.T) {
	n := testNetwork(t)
	m := New(n, DefaultConfig())
	got, err := m.Match(&traj.Trajectory{Taxi: 1, Day: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Visits) != 0 {
		t.Fatal("empty trajectory should match to nothing")
	}
}

func TestMatchDropsOffRoadPoints(t *testing.T) {
	n := testNetwork(t)
	m := New(n, DefaultConfig())
	// A point far outside the city.
	far := geo.Offset(geo.Point{Lat: 22.5, Lng: 114.0}, -50000, -50000)
	tr := &traj.Trajectory{Taxi: 1, Day: 0, Points: []traj.GPSPoint{
		{Pos: far, Time: time.Date(2014, 11, 1, 9, 0, 0, 0, time.UTC), Speed: 5},
	}}
	got, err := m.Match(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Visits) != 0 {
		t.Fatal("an off-road point should produce no visits")
	}
}

func TestMatchSplitsAtTimeGaps(t *testing.T) {
	n := testNetwork(t)
	m := New(n, DefaultConfig())
	base := time.Date(2014, 11, 1, 9, 0, 0, 0, time.UTC)
	// Two points on one road, a huge gap, two points on a distant road.
	segA := n.Segment(0)
	pA := segA.Midpoint()
	farSeg := n.Segment(roadnet.SegmentID(n.NumSegments() - 1))
	pB := farSeg.Midpoint()
	tr := &traj.Trajectory{Taxi: 1, Day: 0, Points: []traj.GPSPoint{
		{Pos: pA, Time: base, Speed: 5},
		{Pos: pA, Time: base.Add(30 * time.Second), Speed: 5},
		{Pos: pB, Time: base.Add(30 * time.Minute), Speed: 5},
		{Pos: pB, Time: base.Add(30*time.Minute + 30*time.Second), Speed: 5},
	}}
	got, err := m.Match(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The output must not contain a fabricated route between the two
	// clusters: total visits should be small (a couple per cluster).
	if len(got.Visits) > 6 {
		t.Fatalf("gap should split trips, got %d visits (route fabricated?)", len(got.Visits))
	}
}

func TestMatchRejectsInvalidTrajectory(t *testing.T) {
	n := testNetwork(t)
	m := New(n, DefaultConfig())
	now := time.Now()
	tr := &traj.Trajectory{Points: []traj.GPSPoint{
		{Pos: geo.Point{Lat: 22.5, Lng: 114}, Time: now},
		{Pos: geo.Point{Lat: 22.5, Lng: 114}, Time: now.Add(-time.Hour)},
	}}
	if _, err := m.Match(tr); err == nil {
		t.Fatal("invalid trajectory should error")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	n := testNetwork(t)
	m := New(n, Config{}) // all zero: defaults must kick in
	_, raw := groundTruth(t, n, 10)
	got, err := m.Match(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Visits) == 0 {
		t.Fatal("zero-config matcher should still work via defaults")
	}
}

func TestMatchPreservesIdentity(t *testing.T) {
	n := testNetwork(t)
	_, raw := groundTruth(t, n, 10)
	raw.Taxi = 42
	raw.Day = 7
	m := New(n, DefaultConfig())
	got, err := m.Match(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Taxi != 42 || got.Day != 7 {
		t.Fatalf("identity lost: taxi=%d day=%d", got.Taxi, got.Day)
	}
}
