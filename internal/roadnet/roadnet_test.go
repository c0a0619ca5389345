package roadnet

import (
	"math"
	"strings"
	"testing"

	"streach/internal/geo"
)

var o = geo.Point{Lat: 22.5, Lng: 114.0}

// lineNet builds a simple two-way chain of 4 roads: A-B-C-D-E, each 1 km.
func lineNet(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	prev := o
	for i := 0; i < 4; i++ {
		next := geo.Offset(o, float64(i+1)*1000, 0)
		if _, err := b.AddRoad(geo.Polyline{prev, next}, Primary, false); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	n := lineNet(t)
	if n.NumSegments() != 8 { // 4 roads x 2 directions
		t.Fatalf("NumSegments = %d, want 8", n.NumSegments())
	}
	if n.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", n.NumVertices())
	}
	s0 := n.Segment(0)
	if math.Abs(s0.Length-1000) > 10 {
		t.Fatalf("segment length = %v, want ~1000", s0.Length)
	}
	if s0.Reverse != 1 || n.Segment(1).Reverse != 0 {
		t.Fatal("two-way road should link twins")
	}
	if n.Segment(1).Start() != s0.End() || n.Segment(1).End() != s0.Start() {
		t.Fatal("twin should be the exact reverse")
	}
}

func TestBuilderRejectsDegenerateRoads(t *testing.T) {
	b := NewBuilder()
	if _, err := b.AddRoad(geo.Polyline{o}, Primary, false); err == nil {
		t.Fatal("single-point road should fail")
	}
	if _, err := b.AddRoad(geo.Polyline{o, o}, Primary, false); err == nil {
		t.Fatal("zero-length road should fail")
	}
}

// TestBuilderRejectsNonFinitePoints: a NaN or infinite coordinate, or
// finite ones whose distance overflows, would poison the segment's length,
// snapping and every reply that renders it.
func TestBuilderRejectsNonFinitePoints(t *testing.T) {
	mid := geo.Offset(o, 300, 0)
	for _, c := range []struct {
		bad  geo.Point
		want string
	}{
		{geo.Point{Lat: math.NaN(), Lng: mid.Lng}, "point 1 (lat NaN, lng 114.00"},
		{geo.Point{Lat: mid.Lat, Lng: math.Inf(1)}, "point 1 (lat 22.5, lng +Inf) is not finite"},
		{geo.Point{Lat: math.Inf(-1), Lng: mid.Lng}, "point 1 (lat -Inf, lng 114.00"},
		{geo.Point{Lat: -math.MaxFloat64, Lng: mid.Lng}, "has length"},
	} {
		b := NewBuilder()
		_, err := b.AddRoad(geo.Polyline{o, c.bad, geo.Offset(o, 600, 0)}, Primary, false)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("point %v: got error %v, want one containing %q", c.bad, err, c.want)
		}
		if n := b.Build(); n.NumSegments() != 0 {
			t.Fatalf("point %v: a refused road left %d segments", c.bad, n.NumSegments())
		}
	}
}

func TestVertexDeduplication(t *testing.T) {
	b := NewBuilder()
	mid := geo.Offset(o, 1000, 0)
	end := geo.Offset(o, 2000, 0)
	if _, err := b.AddRoad(geo.Polyline{o, mid}, Primary, false); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddRoad(geo.Polyline{mid, end}, Primary, false); err != nil {
		t.Fatal(err)
	}
	n := b.Build()
	if n.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3 (shared midpoint)", n.NumVertices())
	}
	// Forward chain must be connected: seg 0 (o->mid) connects to seg 2 (mid->end).
	out := n.Outgoing(0)
	found := false
	for _, s := range out {
		if s == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Outgoing(0) = %v should include segment 2", out)
	}
}

func TestOneWayHasNoTwin(t *testing.T) {
	b := NewBuilder()
	id, err := b.AddRoad(geo.Polyline{o, geo.Offset(o, 500, 0)}, Secondary, true)
	if err != nil {
		t.Fatal(err)
	}
	n := b.Build()
	if n.NumSegments() != 1 {
		t.Fatalf("one-way road should be 1 segment, got %d", n.NumSegments())
	}
	if n.Segment(id).Reverse != NoSegment {
		t.Fatal("one-way segment should have no twin")
	}
}

func TestNeighborsIncludesAllAdjacent(t *testing.T) {
	n := lineNet(t)
	// Middle segment 2 (B->C): neighbors should include 0 (A->B twin... ),
	// its twin 3, forward continuation 4, and backward segments at B.
	nb := n.Neighbors(2)
	set := map[SegmentID]bool{}
	for _, s := range nb {
		if s == 2 {
			t.Fatal("Neighbors must not include the segment itself")
		}
		if set[s] {
			t.Fatalf("duplicate neighbor %d", s)
		}
		set[s] = true
	}
	for _, want := range []SegmentID{0, 1, 3, 4, 5} {
		if !set[want] {
			t.Fatalf("Neighbors(2) = %v missing %d", nb, want)
		}
	}
}

func TestSnapPoint(t *testing.T) {
	n := lineNet(t)
	// 300m along the first road, 50m north of it.
	p := geo.Offset(o, 300, 50)
	id, dist, along, ok := n.SnapPoint(p)
	if !ok {
		t.Fatal("SnapPoint failed")
	}
	seg := n.Segment(id)
	if seg.ID != 0 && seg.ID != 1 {
		t.Fatalf("snapped to segment %d, want the first road", id)
	}
	if math.Abs(dist-50) > 10 {
		t.Fatalf("snap distance = %v, want ~50", dist)
	}
	if seg.ID == 0 && math.Abs(along-300) > 15 {
		t.Fatalf("snap along = %v, want ~300", along)
	}
}

func TestSnapPointEmptyNetwork(t *testing.T) {
	n := NewBuilder().Build()
	if _, _, _, ok := n.SnapPoint(o); ok {
		t.Fatal("SnapPoint on empty network should fail")
	}
}

func TestExpandRespectsBudget(t *testing.T) {
	n := lineNet(t)
	w := n.DistanceWeight()
	var visited []SegmentID
	// Budget 2500 m from segment 0: cost(0)=1000, then 2 (B->C) at 2000;
	// 4 would be 3000 > budget.
	n.Expand(0, 2500, w, func(id SegmentID, cost float64) bool {
		visited = append(visited, id)
		return true
	})
	set := map[SegmentID]bool{}
	for _, id := range visited {
		set[id] = true
	}
	if !set[0] || !set[2] {
		t.Fatalf("Expand missed near segments: %v", visited)
	}
	if set[4] {
		t.Fatalf("Expand exceeded budget: %v", visited)
	}
}

func TestExpandNoUTurn(t *testing.T) {
	n := lineNet(t)
	var visited []SegmentID
	n.Expand(0, 1999, n.DistanceWeight(), func(id SegmentID, cost float64) bool {
		visited = append(visited, id)
		return true
	})
	for _, id := range visited {
		if id == 1 {
			t.Fatal("Expand should not immediately U-turn onto the twin")
		}
	}
}

func TestExpandVisitOrderIsMonotone(t *testing.T) {
	n, err := Generate(GenerateConfig{Origin: o, Rows: 6, Cols: 6, SpacingMeters: 800, LocalFraction: 0.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	last := -1.0
	n.Expand(0, 10000, n.DistanceWeight(), func(id SegmentID, cost float64) bool {
		if cost < last {
			t.Fatalf("expansion cost went backwards: %v after %v", cost, last)
		}
		last = cost
		return true
	})
}

func TestExpandPruning(t *testing.T) {
	n := lineNet(t)
	var visited []SegmentID
	n.Expand(0, 1e9, n.DistanceWeight(), func(id SegmentID, cost float64) bool {
		visited = append(visited, id)
		return id != 2 // prune at B->C
	})
	for _, id := range visited {
		if id == 4 {
			t.Fatal("pruned expansion should not reach beyond segment 2 on the forward chain")
		}
	}
}

func TestShortestPath(t *testing.T) {
	n := lineNet(t)
	path, cost, ok := n.ShortestPath(0, 6, n.DistanceWeight())
	if !ok {
		t.Fatal("path not found")
	}
	want := []SegmentID{0, 2, 4, 6}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if math.Abs(cost-4000) > 40 {
		t.Fatalf("cost = %v, want ~4000", cost)
	}
}

func TestShortestPathSelf(t *testing.T) {
	n := lineNet(t)
	path, cost, ok := n.ShortestPath(2, 2, n.DistanceWeight())
	if !ok || len(path) != 1 || path[0] != 2 {
		t.Fatalf("self path = %v,%v,%v", path, cost, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	// Two disconnected one-way roads.
	b := NewBuilder()
	if _, err := b.AddRoad(geo.Polyline{o, geo.Offset(o, 500, 0)}, Secondary, true); err != nil {
		t.Fatal(err)
	}
	far := geo.Offset(o, 50000, 50000)
	if _, err := b.AddRoad(geo.Polyline{far, geo.Offset(far, 500, 0)}, Secondary, true); err != nil {
		t.Fatal(err)
	}
	n := b.Build()
	if _, _, ok := n.ShortestPath(0, 1, n.DistanceWeight()); ok {
		t.Fatal("disconnected segments should have no path")
	}
}

func TestTravelTimeWeightInfiniteOnZeroSpeed(t *testing.T) {
	n := lineNet(t)
	w := n.TravelTimeWeight(func(id SegmentID) float64 {
		if id == 2 {
			return 0
		}
		return 10
	})
	if !math.IsInf(w(2), 1) {
		t.Fatal("zero speed should be infinite cost")
	}
	if math.Abs(w(0)-100) > 2 {
		t.Fatalf("w(0) = %v, want ~100 s", w(0))
	}
	// Path avoiding nothing: segment 2 is the only way forward, so dst 4
	// becomes unreachable under this weight.
	if _, _, ok := n.ShortestPath(0, 4, w); ok {
		t.Fatal("path through infinite-cost segment should not exist")
	}
}

func TestExpandMultiAttributesNearestSource(t *testing.T) {
	n := lineNet(t)
	// Sources at both ends of the chain; middle segments attribute to the
	// closer end.
	srcIdxOf := map[SegmentID]int{}
	n.ExpandMulti([]SegmentID{0, 7}, 1e9, n.DistanceWeight(), func(id SegmentID, cost float64, src int) bool {
		srcIdxOf[id] = src
		return true
	})
	if srcIdxOf[0] != 0 {
		t.Fatalf("segment 0 attributed to source %d, want 0", srcIdxOf[0])
	}
	if srcIdxOf[7] != 1 {
		t.Fatalf("segment 7 attributed to source %d, want 1", srcIdxOf[7])
	}
	if srcIdxOf[2] != 0 { // B->C is nearer the left source
		t.Fatalf("segment 2 attributed to source %d, want 0", srcIdxOf[2])
	}
}

func TestResegmentPreservesLengthAndConnectivity(t *testing.T) {
	n, err := Generate(GenerateConfig{Origin: o, Rows: 5, Cols: 5, SpacingMeters: 1500, LocalFraction: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resegment(n, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSegments() <= n.NumSegments() {
		t.Fatalf("resegment should increase segment count: %d -> %d", n.NumSegments(), res.NumSegments())
	}
	origLen := n.TotalLength()
	newLen := res.TotalLength()
	if math.Abs(origLen-newLen) > origLen*0.005 {
		t.Fatalf("resegment changed total length: %v -> %v", origLen, newLen)
	}
	// No piece longer than granularity (with slack for split arithmetic).
	for i := 0; i < res.NumSegments(); i++ {
		if l := res.Segment(SegmentID(i)).Length; l > 510 {
			t.Fatalf("segment %d is %v m, exceeds 500 m granularity", i, l)
		}
	}
	if reached := res.ReachableFrom(0, Forward); reached != res.NumSegments() {
		t.Fatalf("resegmented network lost connectivity: %d of %d reachable", reached, res.NumSegments())
	}
}

func TestResegmentKeepsTwinsAligned(t *testing.T) {
	b := NewBuilder()
	if _, err := b.AddRoad(geo.Polyline{o, geo.Offset(o, 3000, 0)}, Highway, false); err != nil {
		t.Fatal(err)
	}
	n := b.Build()
	res, err := Resegment(n, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSegments() != 6 { // 3 pieces x 2 directions
		t.Fatalf("NumSegments = %d, want 6", res.NumSegments())
	}
	for i := 0; i < res.NumSegments(); i++ {
		s := res.Segment(SegmentID(i))
		if s.Reverse == NoSegment {
			t.Fatalf("piece %d of two-way road lost its twin", i)
		}
		tw := res.Segment(s.Reverse)
		if tw.Reverse != s.ID {
			t.Fatalf("twin linkage broken at piece %d", i)
		}
	}
}

func TestResegmentRejectsNonPositiveGranularity(t *testing.T) {
	n := lineNet(t)
	if _, err := Resegment(n, 0); err == nil {
		t.Fatal("granularity 0 should error")
	}
	if _, err := Resegment(n, -5); err == nil {
		t.Fatal("negative granularity should error")
	}
}

func TestGenerateConnectivityAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		n, err := Generate(GenerateConfig{Origin: o, Rows: 8, Cols: 8, SpacingMeters: 1000, LocalFraction: 0.5, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n.NumSegments() < 8*7*2*2 {
			t.Fatalf("seed %d: suspiciously small network (%d segments)", seed, n.NumSegments())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenerateConfig{Origin: o, Rows: 6, Cols: 6, SpacingMeters: 900, LocalFraction: 0.4, Seed: 77}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSegments() != b.NumSegments() || a.NumVertices() != b.NumVertices() {
		t.Fatal("same seed should generate identical networks")
	}
	for i := 0; i < a.NumSegments(); i++ {
		if a.Segment(SegmentID(i)).Length != b.Segment(SegmentID(i)).Length {
			t.Fatalf("segment %d differs between runs", i)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(GenerateConfig{Rows: 1, Cols: 5, SpacingMeters: 100}); err == nil {
		t.Fatal("1-row grid should error")
	}
	if _, err := Generate(GenerateConfig{Rows: 5, Cols: 5, SpacingMeters: 0}); err == nil {
		t.Fatal("zero spacing should error")
	}
}

func TestGenerateHasAllRoadClasses(t *testing.T) {
	n, err := Generate(DefaultGenerateConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	for _, c := range []RoadClass{Highway, Primary, Secondary} {
		if st.ByClass[c] == 0 {
			t.Fatalf("generated city has no %v roads", c)
		}
	}
	if st.TotalKm < 100 {
		t.Fatalf("default city only %v km of roads", st.TotalKm)
	}
}

func TestStatsConsistency(t *testing.T) {
	n := lineNet(t)
	st := n.Stats()
	if st.Segments != 8 || st.Vertices != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.TotalKm-8) > 0.1 {
		t.Fatalf("TotalKm = %v, want ~8", st.TotalKm)
	}
	if math.Abs(st.MeanLengthM-1000) > 15 {
		t.Fatalf("MeanLengthM = %v, want ~1000", st.MeanLengthM)
	}
}

func TestRoadClassStrings(t *testing.T) {
	if Highway.String() != "highway" || Primary.String() != "primary" || Secondary.String() != "secondary" {
		t.Fatal("RoadClass String() broken")
	}
	if RoadClass(9).String() == "" {
		t.Fatal("unknown class should still format")
	}
	if Highway.FreeFlowSpeed() <= Primary.FreeFlowSpeed() || Primary.FreeFlowSpeed() <= Secondary.FreeFlowSpeed() {
		t.Fatal("free-flow speeds should be ordered by class")
	}
}
