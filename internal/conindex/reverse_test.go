package conindex

import (
	"testing"

	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/traj"
)

func TestReverseNearSubsetOfFar(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	slot := 10 * 3600 / 300
	for seg := 0; seg < n.NumSegments(); seg += 9 {
		id := roadnet.SegmentID(seg)
		far := map[roadnet.SegmentID]bool{}
		for _, s := range list(idx, FarReverse, id, slot) {
			far[s] = true
		}
		for _, s := range list(idx, NearReverse, id, slot) {
			if !far[s] {
				t.Fatalf("NearReverse(%d) contains %d missing from FarReverse", seg, s)
			}
		}
	}
}

func TestReverseFarIncludesSelfAndPredecessors(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	slot := 10 * 3600 / 300
	id := roadnet.SegmentID(5)
	set := map[roadnet.SegmentID]bool{}
	for _, s := range list(idx, FarReverse, id, slot) {
		set[s] = true
	}
	if !set[id] {
		t.Fatal("FarReverse should include the destination itself")
	}
	pred := n.Incoming(id)
	rev := n.Segment(id).Reverse
	for _, p := range pred {
		if p == rev && len(pred) > 1 {
			continue
		}
		if !set[p] {
			t.Fatalf("FarReverse should include immediate predecessor %d", p)
		}
	}
}

func TestReverseMirrorsForwardOnLine(t *testing.T) {
	// On a one-way chain A->B->C, Far(A) goes forward while
	// FarReverse(C) goes backward; the two sets, as journeys, mirror.
	b := roadnet.NewBuilder()
	p := geo.Point{Lat: 22.5, Lng: 114.0}
	prev := p
	for i := 0; i < 3; i++ {
		next := geo.Offset(p, float64(i+1)*500, 0)
		if _, err := b.AddRoad(geo.Polyline{prev, next}, roadnet.Primary, true); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	n := b.Build()
	ds := &traj.Dataset{Days: 1}
	idx, err := Build(n, ds, Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	fwd := list(idx, Far, 0, 0)        // from the head of the chain
	rev := list(idx, FarReverse, 2, 0) // into the tail of the chain
	if len(fwd) != 3 || len(rev) != 3 {
		t.Fatalf("expected full chain both ways, got fwd=%v rev=%v", fwd, rev)
	}
}

func TestReverseCached(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	if a, b := row(idx, FarReverse, 3, 50), row(idx, FarReverse, 3, 50); a.p != b.p {
		t.Fatal("repeated FarReverse should return the materialised row")
	}
	if c, d := row(idx, NearReverse, 3, 50), row(idx, NearReverse, 3, 50); c.p != d.p {
		t.Fatal("repeated NearReverse should return the materialised row")
	}
}

func TestReverseSlotWraps(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	a := list(idx, FarReverse, 0, 5)
	b := list(idx, FarReverse, 0, 5+idx.NumSlots())
	if len(a) != len(b) {
		t.Fatal("reverse slot index should wrap modulo a day")
	}
}
