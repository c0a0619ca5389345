package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"streach/internal/geo"
)

var origin = geo.Point{Lat: 22.5, Lng: 114.0}

// randomItems scatters n small boxes across a ~20 km square.
func randomItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		p := geo.Offset(origin, rng.Float64()*20000, rng.Float64()*20000)
		q := geo.Offset(p, rng.Float64()*200, rng.Float64()*200)
		items[i] = Item{ID: int64(i), Box: geo.NewMBR(p, q)}
	}
	return items
}

// bruteWithin is the oracle for NearestWithin: the IDs of all items
// whose boxes lie within radius metres of p.
func bruteWithin(items []Item, p geo.Point, radius float64) []int64 {
	var out []int64
	for _, it := range items {
		if it.Box.DistanceTo(p) <= radius {
			out = append(out, it.ID)
		}
	}
	return out
}

func itemIDs(items []Item) []int64 {
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	return ids
}

func sortIDs(ids []int64) []int64 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := BulkLoad(nil)
	if tr.Len() != 0 {
		t.Fatal("bulk load of nil should be empty")
	}
	if got := tr.NearestWithin(origin, math.Inf(1), 0); len(got) != 0 {
		t.Fatal("nearest-within on empty tree should return nothing")
	}
	if got := tr.Nearest(origin, 3); len(got) != 0 {
		t.Fatal("nearest on empty tree should return nothing")
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestBulkLoadSearchMatchesBruteForce(t *testing.T) {
	items := randomItems(2000, 7)
	tr := BulkLoad(items)
	if tr.Len() != len(items) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(items))
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		p := geo.Offset(origin, rng.Float64()*20000, rng.Float64()*20000)
		radius := rng.Float64() * 2000
		got := tr.NearestWithin(p, radius, 0)
		for j := 1; j < len(got); j++ {
			if got[j].Box.DistanceTo(p) < got[j-1].Box.DistanceTo(p) {
				t.Fatalf("query %d: result %d is closer than result %d", i, j, j-1)
			}
		}
		want := sortIDs(bruteWithin(items, p, radius))
		if !equalIDs(sortIDs(itemIDs(got)), want) {
			t.Fatalf("query %d: got %d ids, want %d", i, len(got), len(want))
		}
	}
}

func TestSearchPoint(t *testing.T) {
	items := []Item{
		{ID: 1, Box: geo.NewMBR(origin, geo.Offset(origin, 1000, 1000))},
		{ID: 2, Box: geo.NewMBR(geo.Offset(origin, 2000, 2000), geo.Offset(origin, 3000, 3000))},
	}
	tr := BulkLoad(items)
	// A point query is a search with radius 0.
	inside := geo.Offset(origin, 500, 500)
	got := tr.NearestWithin(inside, 0, 0)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("point search inside box 1: got %v", got)
	}
	nowhere := geo.Offset(origin, 1500, 1500)
	if got := tr.NearestWithin(nowhere, 0, 0); len(got) != 0 {
		t.Fatalf("point search in gap: got %v", got)
	}
}

func TestNearestOrdering(t *testing.T) {
	// Items on a line east of origin at 1 km spacing.
	var items []Item
	for i := 0; i < 10; i++ {
		p := geo.Offset(origin, float64(i+1)*1000, 0)
		items = append(items, Item{ID: int64(i), Box: geo.NewMBR(p, p)})
	}
	tr := BulkLoad(items)
	got := tr.Nearest(origin, 3)
	if len(got) != 3 {
		t.Fatalf("Nearest returned %d items, want 3", len(got))
	}
	for i, it := range got {
		if it.ID != int64(i) {
			t.Fatalf("Nearest[%d].ID = %d, want %d", i, it.ID, i)
		}
	}
}

func TestNearestMoreThanAvailable(t *testing.T) {
	items := randomItems(5, 13)
	tr := BulkLoad(items)
	got := tr.Nearest(origin, 50)
	if len(got) != 5 {
		t.Fatalf("Nearest returned %d, want all 5", len(got))
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	items := randomItems(800, 14)
	tr := BulkLoad(items)
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 30; trial++ {
		p := geo.Offset(origin, rng.Float64()*20000, rng.Float64()*20000)
		got := tr.Nearest(p, 5)
		type distItem struct {
			d  float64
			id int64
		}
		all := make([]distItem, len(items))
		for i, it := range items {
			all[i] = distItem{it.Box.DistanceTo(p), it.ID}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		// Distances must match even if ties reorder IDs.
		for i := 0; i < 5; i++ {
			gd := got[i].Box.DistanceTo(p)
			if diff := gd - all[i].d; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d: nearest[%d] dist %v, want %v", trial, i, gd, all[i].d)
			}
		}
	}
}

func TestNearestWithin(t *testing.T) {
	var items []Item
	for i := 0; i < 10; i++ {
		p := geo.Offset(origin, float64(i+1)*1000, 0)
		items = append(items, Item{ID: int64(i), Box: geo.NewMBR(p, p)})
	}
	tr := BulkLoad(items)
	got := tr.NearestWithin(origin, 3500, 0)
	if len(got) != 3 {
		t.Fatalf("NearestWithin(3500m) returned %d items, want 3", len(got))
	}
	got = tr.NearestWithin(origin, 3500, 2)
	if len(got) != 2 {
		t.Fatalf("NearestWithin limit 2 returned %d items", len(got))
	}
	if got := tr.NearestWithin(origin, 100, 0); len(got) != 0 {
		t.Fatalf("NearestWithin(100m) should be empty, got %d", len(got))
	}
}

func TestBoundsCoverEverything(t *testing.T) {
	items := randomItems(300, 17)
	tr := BulkLoad(items)
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	got := sortIDs(itemIDs(tr.NearestWithin(origin, math.Inf(1), 0)))
	if !equalIDs(got, sortIDs(itemIDs(items))) {
		t.Fatalf("an unbounded search found %d of %d items", len(got), len(items))
	}
}

func TestDuplicateBoxes(t *testing.T) {
	// Many items sharing the exact same MBR must all be stored and found.
	box := geo.NewMBR(origin, geo.Offset(origin, 100, 100))
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{ID: int64(i), Box: box}
	}
	tr := BulkLoad(items)
	got := tr.NearestWithin(geo.Offset(origin, 50, 50), 0, 0)
	if len(got) != 100 {
		t.Fatalf("found %d duplicates, want 100", len(got))
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}
