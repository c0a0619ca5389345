package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"streach/internal/geo"
	"streach/internal/roadnet"
)

// refExpandReverseDistance is the reverse exhaustive search's expansion
// as it was, a linear-scan Dijkstra over a map, but for visit's cost
// argument: it walks the reverse graph from dst in increasing cumulative
// length order up to budget metres.
func (e *Engine) refExpandReverseDistance(dst roadnet.SegmentID, budget float64, visit func(roadnet.SegmentID, float64) bool) {
	type item struct {
		seg  roadnet.SegmentID
		cost float64
	}
	dist := map[roadnet.SegmentID]float64{dst: 0}
	queue := []item{{dst, 0}}
	for len(queue) > 0 {
		// Simple Dijkstra-by-scan: queue sizes here are modest and the
		// per-pop verification dominates anyway.
		best := 0
		for i := 1; i < len(queue); i++ {
			if queue[i].cost < queue[best].cost {
				best = i
			}
		}
		it := queue[best]
		queue[best] = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if d, ok := dist[it.seg]; !ok || it.cost > d {
			continue
		}
		if !visit(it.seg, it.cost) {
			return
		}
		pred := e.net.Incoming(it.seg)
		rev := e.net.Segment(it.seg).Reverse
		for _, prev := range pred {
			if prev == rev && len(pred) > 1 {
				continue
			}
			c := it.cost + e.net.Segment(prev).Length
			if c > budget {
				continue
			}
			if d, ok := dist[prev]; !ok || c < d {
				dist[prev] = c
				queue = append(queue, item{prev, c})
			}
		}
	}
}

// reverseReach collects what a reverse expansion from dst reaches within
// budget, with the cost it reaches each segment at: through the
// reference, or through the search planES runs.
func reverseReach(n *roadnet.Network, dst roadnet.SegmentID, budget float64, ref bool) map[roadnet.SegmentID]float64 {
	out := map[roadnet.SegmentID]float64{}
	if ref {
		(&Engine{net: n}).refExpandReverseDistance(dst, budget, func(r roadnet.SegmentID, cost float64) bool {
			out[r] = cost
			return true
		})
		return out
	}
	n.Search(roadnet.Backward, []roadnet.Source{{Seg: dst}}, budget, n.DistanceWeight(), func(r roadnet.SegmentID, cost float64, _ int) roadnet.Step {
		out[r] = cost
		return roadnet.Continue
	})
	return out
}

// checkReverseReach requires the same segments at the same costs; only
// the order may differ (finish sorts every answer).
func checkReverseReach(t *testing.T, name string, n *roadnet.Network, dst roadnet.SegmentID, budget float64) {
	t.Helper()
	got, want := reverseReach(n, dst, budget, false), reverseReach(n, dst, budget, true)
	if len(got) != len(want) {
		t.Fatalf("%s: reverse search from %d within %v reaches %d segments, reference %d", name, dst, budget, len(got), len(want))
	}
	for r, c := range want {
		if g, ok := got[r]; !ok || g != c {
			t.Fatalf("%s: reverse search from %d reaches %d at %v (%v), reference at %v", name, dst, r, g, ok, c)
		}
	}
}

// TestESMatchesReference holds the reverse exhaustive search to the
// linear-scan expansion it replaced: on re-segmented generated cities, on
// a hand-built net of dead ends, and through PlanReverseES on the
// fixture, whose candidates must be the reference's reach. The forward
// plan's candidates must be Expand's visits from the start, in order
// (roadnet holds Expand to its own reference).
func TestESMatchesReference(t *testing.T) {
	radius := (10 * time.Minute).Seconds() * roadnet.Highway.FreeFlowSpeed()
	for seed := int64(1); seed <= 3; seed++ {
		raw, err := roadnet.Generate(roadnet.GenerateConfig{
			Origin: geo.Point{Lat: 22.5, Lng: 114}, Rows: 6, Cols: 6, SpacingMeters: 1000, LocalFraction: 0.4, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := roadnet.Resegment(raw, 500)
		if err != nil {
			t.Fatal(err)
		}
		for dst := 0; dst < n.NumSegments(); dst += 29 {
			for _, budget := range []float64{1500, radius} {
				checkReverseReach(t, fmt.Sprintf("seed %d", seed), n, roadnet.SegmentID(dst), budget)
			}
		}
	}

	// A two-way chain a-b-c with a two-way spur b-d, a one-way feeder
	// f->a and a one-way stub c->e: d and e are dead ends, and nothing
	// but f itself reaches f.
	o := geo.Point{Lat: 22.5, Lng: 114}
	at := func(x, y float64) geo.Point { return geo.Offset(o, x, y) }
	b := roadnet.NewBuilder()
	for _, road := range []struct {
		from, to geo.Point
		oneWay   bool
	}{
		{at(0, 0), at(800, 0), false}, {at(800, 0), at(1600, 0), false}, {at(800, 0), at(800, 600), false},
		{at(1600, 0), at(1600, -700), true}, {at(-500, 0), at(0, 0), true},
	} {
		if _, err := b.AddRoad(geo.Polyline{road.from, road.to}, roadnet.Secondary, road.oneWay); err != nil {
			t.Fatal(err)
		}
	}
	dead := b.Build()
	for dst := 0; dst < dead.NumSegments(); dst++ {
		for _, budget := range []float64{700, 1700, radius} {
			checkReverseReach(t, "dead ends", dead, roadnet.SegmentID(dst), budget)
		}
	}

	// A 2-minute radius covers part of the fixture city, not all of it.
	f := getFixture(t)
	e := newEngine(t, Options{})
	q := baseQuery(f)
	q.Duration = 2 * time.Minute
	p, err := e.PlanReverseES(context.Background(), q, DeferVerification())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	dst, _ := f.st.SnapLocation(q.Location)
	want := reverseReach(f.net, dst, q.Duration.Seconds()*roadnet.Highway.FreeFlowSpeed(), true)
	got := p.Candidates()
	if len(got) != len(want) {
		t.Fatalf("PlanReverseES has %d candidates, reference reach %d", len(got), len(want))
	}
	for _, r := range got {
		if _, ok := want[r]; !ok {
			t.Fatalf("PlanReverseES candidate %d is outside the reference reach", r)
		}
	}

	fp, err := e.PlanReachES(context.Background(), q, DeferVerification())
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	var order []roadnet.SegmentID
	f.net.Expand(dst, q.Duration.Seconds()*roadnet.Highway.FreeFlowSpeed(), f.net.DistanceWeight(), func(r roadnet.SegmentID, _ float64) bool {
		order = append(order, r)
		return true
	})
	if !slices.Equal(fp.Candidates(), order) {
		t.Fatalf("PlanReachES candidates %v, Expand visits %v", fp.Candidates(), order)
	}
}
