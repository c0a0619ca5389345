package roadnet

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"streach/internal/geo"
)

// visitRec is one visit of a search: the segment, its cost and the index
// of the source it was reached from.
type visitRec struct {
	id   SegmentID
	cost float64
	src  int
}

// resegmentedCity is the generated city the engine runs on, at one seed:
// an 8x8 arterial grid at 1 km re-segmented at 500 m.
func resegmentedCity(t testing.TB, rows int, seed int64) *Network {
	t.Helper()
	n, err := Generate(GenerateConfig{Origin: o, Rows: rows, Cols: rows, SpacingMeters: 1000, LocalFraction: 0.4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resegment(n, 500)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// deadEndNet is hand-built around dead ends: a two-way chain A-B-C-D with
// a two-way spur B-E, a one-way feeder F->B and a one-way stub C->G. D
// and E are two-way dead ends (the only way on is the U-turn), G is a
// one-way one (no way on at all) and F is never entered.
func deadEndNet(t testing.TB) *Network {
	t.Helper()
	at := func(x, y float64) geo.Point { return geo.Offset(o, x, y) }
	a, bv, c, d := at(0, 0), at(1000, 0), at(2000, 0), at(3000, 0)
	e, f, g := at(1000, 700), at(1000, -500), at(2000, -900)
	b := NewBuilder()
	for _, r := range []struct {
		from, to geo.Point
		oneWay   bool
	}{
		{a, bv, false}, {bv, c, false}, {c, d, false}, {bv, e, false}, {f, bv, true}, {c, g, true},
	} {
		if _, err := b.AddRoad(geo.Polyline{r.from, r.to}, Secondary, r.oneWay); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// unitWeight prices every segment alike, so costs tie everywhere.
func unitWeight(SegmentID) float64 { return 1 }

// expandSeq and refExpandSeq record Expand's and refExpand's visits from
// src, pruning wherever prune says.
func expandSeq(n *Network, src SegmentID, budget float64, w WeightFunc, prune func(SegmentID) bool) []visitRec {
	var out []visitRec
	n.Expand(src, budget, w, func(id SegmentID, cost float64) bool {
		out = append(out, visitRec{id, cost, 0})
		return !prune(id)
	})
	return out
}

func refExpandSeq(n *Network, src SegmentID, budget float64, w WeightFunc, prune func(SegmentID) bool) []visitRec {
	var out []visitRec
	n.refExpand(src, budget, w, func(id SegmentID, cost float64) bool {
		out = append(out, visitRec{id, cost, 0})
		return !prune(id)
	})
	return out
}

func multiSeq(n *Network, srcs []SegmentID, budget float64, w WeightFunc, prune func(SegmentID) bool, ref bool) []visitRec {
	var out []visitRec
	visit := func(id SegmentID, cost float64, src int) bool {
		out = append(out, visitRec{id, cost, src})
		return !prune(id)
	}
	if ref {
		n.refExpandMulti(srcs, budget, w, visit)
	} else {
		n.ExpandMulti(srcs, budget, w, visit)
	}
	return out
}

// checkSearchesMatch holds Expand, ExpandMulti and ShortestPath to the
// references from every source in srcs: the visit sequences element for
// element, the paths segment for segment and the costs bit for bit.
func checkSearchesMatch(t testing.TB, name string, n *Network, srcs []SegmentID, budgets []float64, pairs [][2]SegmentID) {
	t.Helper()
	noPrune := func(SegmentID) bool { return false }
	somePrune := func(id SegmentID) bool { return id%5 == 3 }
	stalled := n.TravelTimeWeight(func(id SegmentID) float64 { return float64(id % 7) }) // +Inf on every 7th
	for wi, w := range []WeightFunc{n.DistanceWeight(), unitWeight, stalled} {
		for _, budget := range budgets {
			for pi, prune := range []func(SegmentID) bool{noPrune, somePrune} {
				tag := fmt.Sprintf("%s weight %d budget %v prune %d", name, wi, budget, pi)
				for _, src := range srcs {
					got, want := expandSeq(n, src, budget, w, prune), refExpandSeq(n, src, budget, w, prune)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: Expand from %d visits %v, reference %v", tag, src, got, want)
					}
				}
				for i := 0; i+2 < len(srcs); i++ {
					// Three sources, one repeated, so a segment is claimed
					// by two sources at one cost.
					multi := []SegmentID{srcs[i], srcs[i+2], srcs[i]}
					got, want := multiSeq(n, multi, budget, w, prune, false), multiSeq(n, multi, budget, w, prune, true)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: ExpandMulti from %v visits %v, reference %v", tag, multi, got, want)
					}
				}
			}
		}
		for _, p := range pairs {
			path, cost, ok := n.ShortestPath(p[0], p[1], w)
			rpath, rcost, rok := n.refShortestPath(p[0], p[1], w)
			if !slices.Equal(path, rpath) || cost != rcost || ok != rok {
				t.Fatalf("%s weight %d: ShortestPath %d->%d = %v %v %v, reference %v %v %v",
					name, wi, p[0], p[1], path, cost, ok, rpath, rcost, rok)
			}
		}
	}
}

// TestSearchMatchesReference holds the one search loop to the old
// map-and-container/heap searches on re-segmented generated cities and
// on a hand-built net of dead ends, with and without ties and pruning.
func TestSearchMatchesReference(t *testing.T) {
	esRadius := 600 * Highway.FreeFlowSpeed() // a 10-minute exhaustive search
	for seed := int64(1); seed <= 3; seed++ {
		n := resegmentedCity(t, 6, seed)
		var srcs []SegmentID
		var pairs [][2]SegmentID
		for s := 0; s < n.NumSegments(); s += 37 {
			srcs = append(srcs, SegmentID(s))
			pairs = append(pairs, [2]SegmentID{SegmentID(s), SegmentID((s*31 + 7) % n.NumSegments())})
		}
		checkSearchesMatch(t, fmt.Sprintf("seed %d", seed), n, srcs, []float64{2500, esRadius, math.Inf(1)}, pairs)
	}
	n := deadEndNet(t)
	var srcs []SegmentID
	var pairs [][2]SegmentID
	for s := 0; s < n.NumSegments(); s++ {
		srcs = append(srcs, SegmentID(s))
		for d := 0; d < n.NumSegments(); d++ {
			pairs = append(pairs, [2]SegmentID{SegmentID(s), SegmentID(d)})
		}
	}
	// Out-of-range sources are skipped by both.
	srcs = append(srcs, -1, SegmentID(n.NumSegments()))
	checkSearchesMatch(t, "dead ends", n, srcs, []float64{1500, math.Inf(1)}, pairs)
}

// TestSearchRelabelsDearSources: costs sit on segments, so with every
// source starting at its own weight (as in Expand and ExpandMulti) a
// segment's first label is final and no entry goes stale. A source that
// starts dearer than a path to it from another source is the case where
// a label drops and the old entry must be skipped: it is visited once,
// at the cheaper cost, from the other source.
func TestSearchRelabelsDearSources(t *testing.T) {
	n := lineNet(t) // A-B-C-D-E: forward segments 0, 2, 4, 6, back 7, 5, 3, 1
	var got []visitRec
	n.Search(Forward, []Source{{4, 5}, {0, 0}}, 10, unitWeight, func(id SegmentID, cost float64, src int) Step {
		got = append(got, visitRec{id, cost, src})
		return Continue
	})
	want := []visitRec{{0, 0, 1}, {2, 1, 1}, {4, 2, 1}, {6, 3, 1}, {7, 4, 1}, {5, 5, 1}, {3, 6, 1}, {1, 7, 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("visits %v, want %v", got, want)
	}
}

// TestHeapMatchesContainerHeap pushes and pops the same entries, costs
// drawn from four values so that most compare equal, through Heap and
// through container/heap, and requires the same pop sequence.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Heap
	ref := &segPQ{}
	for step := 0; step < 20000; step++ {
		if rng.Intn(3) > 0 || len(h) == 0 {
			it := HeapItem{Seg: SegmentID(step), Cost: float64(rng.Intn(4))}
			h.Push(it)
			heap.Push(ref, pqItem{it.Seg, it.Cost})
			continue
		}
		got, want := h.Pop(), heap.Pop(ref).(pqItem)
		if got.Seg != want.seg || got.Cost != want.cost {
			t.Fatalf("step %d: Heap popped %v, container/heap %v", step, got, want)
		}
	}
}

// transposeDiff returns the segments whose Backward list differs from
// the transpose of the Forward lists.
func transposeDiff(n *Network) []SegmentID {
	off, succ := n.Adjacency(Forward)
	poff, pred := n.Adjacency(Backward)
	transposed := make([][]SegmentID, n.NumSegments())
	for s := range transposed {
		for _, x := range succ[off[s]:off[s+1]] {
			transposed[x] = append(transposed[x], SegmentID(s))
		}
	}
	var diff []SegmentID
	for s, want := range transposed {
		if !slices.Equal(pred[poff[s]:poff[s+1]], want) {
			diff = append(diff, SegmentID(s))
		}
	}
	return diff
}

// TestPredIsSuccTranspose pins what a multi-source search over the
// Backward lists may rely on: on generated cities, raw and re-segmented,
// predecessors are exactly the transpose of successors. The one shape
// where the two U-turn rules part is a vertex whose in- and out-degree
// differ beside a twin pair: at v with a two-way road to x and a one-way
// road in from y, the only way out of v is back to x, so the forward
// rule lets x->v U-turn onto v->x, while v->x has two ways in and the
// backward rule drops its twin.
func TestPredIsSuccTranspose(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		raw, err := Generate(GenerateConfig{Origin: o, Rows: 8, Cols: 8, SpacingMeters: 1000, LocalFraction: 0.4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for name, n := range map[string]*Network{"raw": raw, "resegmented": resegmentedCity(t, 8, seed)} {
			if diff := transposeDiff(n); len(diff) > 0 {
				t.Fatalf("seed %d %s: Backward lists of %v are not the Forward transpose", seed, name, diff)
			}
		}
	}
	def, err := Generate(DefaultGenerateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if diff := transposeDiff(def); len(diff) > 0 {
		t.Fatalf("default city: Backward lists of %v are not the Forward transpose", diff)
	}

	v, x, y := o, geo.Offset(o, 500, 0), geo.Offset(o, 0, 500)
	b := NewBuilder()
	in, _ := b.AddRoad(geo.Polyline{x, v}, Primary, false) // x->v, twin v->x
	if _, err := b.AddRoad(geo.Polyline{y, v}, Primary, true); err != nil {
		t.Fatal(err)
	}
	n := b.Build()
	out := n.Segment(in).Reverse
	if diff := transposeDiff(n); !slices.Equal(diff, []SegmentID{out}) {
		t.Fatalf("degree-mismatch shape: differing lists %v, want only v->x (%d)", diff, out)
	}
}

// TestBuilderRejectsOutOfRange: coordinates off the globe overflow the
// vertex grid's int64 keys, so far-apart roads used to collapse into one
// vertex with self-loops of 1e25 m.
func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder()
	_, err1 := b.AddRoad(geo.Polyline{{Lat: 1e20, Lng: 1e20}, {Lat: 1e20, Lng: 2e20}}, Primary, true)
	_, err2 := b.AddRoad(geo.Polyline{{Lat: 5e20, Lng: 7e20}, {Lat: 5e20, Lng: 9e20}}, Primary, true)
	for i, err := range []error{err1, err2} {
		if err == nil || !strings.Contains(err.Error(), "point 0") || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("road %d: got error %v, want one naming point 0 out of range", i, err)
		}
	}
	if n := b.Build(); n.NumSegments() != 0 || n.NumVertices() != 0 {
		t.Fatalf("refused roads left %d segments, %d vertices", n.NumSegments(), n.NumVertices())
	}
	for _, c := range []struct {
		p  geo.Point
		ok bool
	}{
		{geo.Point{Lat: 90, Lng: 180}, true},
		{geo.Point{Lat: -90, Lng: -180}, true},
		{geo.Point{Lat: 90.5, Lng: 0}, false},
		{geo.Point{Lat: 0, Lng: -180.5}, false},
	} {
		_, err := NewBuilder().AddRoad(geo.Polyline{{Lat: 0, Lng: 0}, c.p}, Primary, false)
		if (err == nil) != c.ok {
			t.Fatalf("road to %v: error %v, want ok=%v", c.p, err, c.ok)
		}
	}
}

// TestGenerateSmallGrids: every grid from 2x2 to 5x5 builds, strongly
// connected, at several seeds and local-street fractions.
func TestGenerateSmallGrids(t *testing.T) {
	for rows := 2; rows <= 5; rows++ {
		for cols := 2; cols <= 5; cols++ {
			for seed := int64(1); seed <= 3; seed++ {
				for _, frac := range []float64{0, 0.5, 1} {
					n, err := Generate(GenerateConfig{Origin: o, Rows: rows, Cols: cols, SpacingMeters: 800, LocalFraction: frac, Seed: seed})
					if err != nil {
						t.Fatalf("%dx%d seed %d local %v: %v", rows, cols, seed, frac, err)
					}
					for _, dir := range []Direction{Forward, Backward} {
						if got := n.ReachableFrom(0, dir); got != n.NumSegments() {
							t.Fatalf("%dx%d seed %d local %v: direction %d reaches %d of %d", rows, cols, seed, frac, dir, got, n.NumSegments())
						}
					}
				}
			}
		}
	}
}

// fuzzNet builds a network from data on a 4x4 lattice of vertices 100 m
// apart: each byte pair is a road between two lattice vertices, one-way
// when the second byte's high bit is set. Refused roads are skipped.
func fuzzNet(data []byte) *Network {
	b := NewBuilder()
	vert := func(x byte) geo.Point { return geo.Offset(o, float64(x&3)*100, float64(x>>2&3)*100) }
	for i := 0; i+1 < len(data) && i < 64; i += 2 {
		// A refused road (a loop back to its own vertex) is skipped.
		_, _ = b.AddRoad(geo.Polyline{vert(data[i]), vert(data[i+1])}, Primary, data[i+1]&0x80 != 0)
	}
	return b.Build()
}

// FuzzSearchMatchesReference holds Expand, ExpandMulti and ShortestPath
// to the references on small networks built from the input, under a
// constant weight (every cost ties with its neighbours') and under
// lengths.
func FuzzSearchMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 6, 6, 5, 5, 1, 1, 0x85, 2, 3, 3, 7, 7, 6})
	f.Add([]byte{0, 1, 1, 0x82, 2, 0x83, 3, 0x87, 7, 0x86, 6, 5, 5, 4, 4, 0})
	f.Add([]byte{5, 6, 6, 10, 10, 9, 9, 5, 5, 1, 6, 2, 10, 14, 9, 13, 9, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := fuzzNet(data)
		if n.NumSegments() == 0 {
			return
		}
		var srcs []SegmentID
		var pairs [][2]SegmentID
		for s := 0; s < n.NumSegments(); s++ {
			srcs = append(srcs, SegmentID(s))
			for k := 0; k < 4; k++ {
				pairs = append(pairs, [2]SegmentID{SegmentID(s), SegmentID((s*7 + k*5) % n.NumSegments())})
			}
		}
		checkSearchesMatch(t, "fuzz", n, srcs, []float64{250, math.Inf(1)}, pairs)
	})
}

// BenchmarkSearch times the searches on the re-segmented 8x8 city, each
// against its reference copy, in ns per visit (a pop that settles a
// segment; stale pops are not counted): Expand out to a 10-minute
// exhaustive-search radius from every 16th segment, ExpandMulti from
// three such starts at once, and ShortestPath between far-apart pairs.
func BenchmarkSearch(b *testing.B) {
	n := resegmentedCity(b, 8, 1)
	w := n.DistanceWeight()
	radius := 600 * Highway.FreeFlowSpeed()
	var srcs []SegmentID
	for s := 0; s < n.NumSegments(); s += 16 {
		srcs = append(srcs, SegmentID(s))
	}
	count := func(fn func(visit func(SegmentID, float64, int) bool)) int {
		visits := 0
		fn(func(SegmentID, float64, int) bool { visits++; return true })
		return visits
	}
	run := func(b *testing.B, visits int, op func()) {
		for i := 0; i < b.N; i++ {
			op()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(visits), "ns/visit")
	}
	expandAll := func(expand func(SegmentID, float64, WeightFunc, func(SegmentID, float64) bool)) func(func(SegmentID, float64, int) bool) {
		return func(visit func(SegmentID, float64, int) bool) {
			for _, s := range srcs {
				expand(s, radius, w, func(id SegmentID, c float64) bool { return visit(id, c, 0) })
			}
		}
	}
	multiAll := func(multi func([]SegmentID, float64, WeightFunc, func(SegmentID, float64, int) bool)) func(func(SegmentID, float64, int) bool) {
		return func(visit func(SegmentID, float64, int) bool) {
			for i := 0; i+2 < len(srcs); i += 3 {
				multi(srcs[i:i+3], radius, w, visit)
			}
		}
	}
	// A shortest path settles what a search stopped at its destination
	// settles.
	pathVisits := 0
	for _, s := range srcs {
		dst := SegmentID(n.NumSegments() - 1 - int(s))
		n.Search(Forward, []Source{{s, w(s)}}, math.Inf(1), w, func(id SegmentID, _ float64, _ int) Step {
			pathVisits++
			if id == dst {
				return Stop
			}
			return Continue
		})
	}
	pathAll := func(path func(SegmentID, SegmentID, WeightFunc) ([]SegmentID, float64, bool)) func() {
		return func() {
			for _, s := range srcs {
				path(s, SegmentID(n.NumSegments()-1-int(s)), w)
			}
		}
	}
	for _, c := range []struct {
		name string
		op   func(func(SegmentID, float64, int) bool)
	}{
		{"Expand", expandAll(n.Expand)},
		{"ExpandRef", expandAll(n.refExpand)},
		{"ExpandMulti", multiAll(n.ExpandMulti)},
		{"ExpandMultiRef", multiAll(n.refExpandMulti)},
	} {
		visits := count(c.op)
		b.Run(c.name, func(b *testing.B) {
			run(b, visits, func() { c.op(func(SegmentID, float64, int) bool { return true }) })
		})
	}
	b.Run("ShortestPath", func(b *testing.B) { run(b, pathVisits, pathAll(n.ShortestPath)) })
	b.Run("ShortestPathRef", func(b *testing.B) { run(b, pathVisits, pathAll(n.refShortestPath)) })
}
