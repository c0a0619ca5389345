package conindex

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/traj"
)

func testNetwork(t testing.TB) *roadnet.Network {
	t.Helper()
	n, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin:        geo.Point{Lat: 22.5, Lng: 114.0},
		Rows:          5,
		Cols:          5,
		SpacingMeters: 700,
		LocalFraction: 0.3,
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testDataset(t testing.TB, n *roadnet.Network) *traj.Dataset {
	t.Helper()
	ds, err := traj.Simulate(n, traj.SimConfig{
		Taxis: 15, Days: 4, Profile: traj.DefaultSpeedProfile(), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// warm materialises the slots [lo, hi] on the given worker count.
func warm(t testing.TB, x *Index, lo, hi, workers int) {
	t.Helper()
	if err := x.PrecomputeSlotsCtx(context.Background(), lo, hi, workers); err != nil {
		t.Fatal(err)
	}
}

// row is the tests' plain row lookup: RowCtx under a background context,
// which never cancels an expansion.
func row(idx *Index, k Kind, seg roadnet.SegmentID, slot int) Row {
	r, _ := idx.RowCtx(context.Background(), k, seg, slot)
	return r
}

// list is row expanded to a sorted ID slice (seg itself included).
func list(idx *Index, k Kind, seg roadnet.SegmentID, slot int) []roadnet.SegmentID {
	return row(idx, k, seg, slot).AppendTo(nil)
}

func build(t testing.TB, n *roadnet.Network, ds *traj.Dataset) *Index {
	t.Helper()
	idx, err := Build(n, ds, Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestBuildValidations(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	if _, err := Build(roadnet.NewBuilder().Build(), ds, Config{}); err == nil {
		t.Fatal("empty network should error")
	}
	if _, err := Build(n, ds, Config{SlotSeconds: 7}); err == nil {
		t.Fatal("bad slot seconds should error")
	}
}

// TestBuildRejectsOutOfRange: a segment past the network (which would
// fold its speed into segment 0 of the next slot), a negative segment,
// a taxi or day out of range, a NaN speed (which would poison a speed
// bound) and an exit before the entry are errors naming the trajectory.
func TestBuildRejectsOutOfRange(t *testing.T) {
	n := testNetwork(t)
	seg := roadnet.SegmentID(n.NumSegments())
	visits := func(s roadnet.SegmentID) []traj.Visit {
		return []traj.Visit{{Segment: 0, EnterMs: 1000, ExitMs: 2000, Speed: 9}, {Segment: s, EnterMs: 2000, ExitMs: 3000, Speed: 33}}
	}
	for _, tc := range []struct {
		name string
		mt   traj.MatchedTrajectory
		want string
	}{
		{"segment past the network", traj.MatchedTrajectory{Taxi: 1, Day: 0, Visits: visits(seg)}, fmt.Sprintf("trajectory 1 visit 1: segment %d outside [0, %d)", seg, seg)},
		{"negative segment", traj.MatchedTrajectory{Taxi: 1, Day: 0, Visits: visits(-1)}, "trajectory 1 visit 1: segment -1 outside"},
		{"taxi too large", traj.MatchedTrajectory{Taxi: traj.MaxTaxis, Day: 0, Visits: visits(1)}, "trajectory 1: taxi 32768 outside [0, 32768)"},
		{"negative taxi", traj.MatchedTrajectory{Taxi: -1, Day: 0, Visits: visits(1)}, "trajectory 1: taxi -1 outside"},
		{"day past the dataset", traj.MatchedTrajectory{Taxi: 1, Day: 2, Visits: visits(1)}, "trajectory 1: day 2 outside [0, 2)"},
		{"negative day", traj.MatchedTrajectory{Taxi: 1, Day: -1, Visits: visits(1)}, "trajectory 1: day -1 outside"},
		{"NaN speed", traj.MatchedTrajectory{Taxi: 1, Day: 0, Visits: []traj.Visit{{Segment: 1, EnterMs: 1000, ExitMs: 2000, Speed: float32(math.NaN())}}}, "trajectory 1 visit 0: speed NaN"},
		{"exit before entry", traj.MatchedTrajectory{Taxi: 1, Day: 0, Visits: []traj.Visit{{Segment: 1, EnterMs: 1000, ExitMs: -5, Speed: 9}}}, "trajectory 1 visit 0: exit -5 ms before entry 1000 ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := &traj.Dataset{Days: 2, Matched: []traj.MatchedTrajectory{{Taxi: 2, Day: 1, Visits: visits(2)}, tc.mt}}
			_, err := Build(n, ds, Config{SlotSeconds: 300})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestSpeedExtremesOrdered(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	for slot := 0; slot < idx.NumSlots(); slot += 13 {
		for seg := 0; seg < n.NumSegments(); seg++ {
			lo := idx.MinSpeed(roadnet.SegmentID(seg), slot)
			hi := idx.MaxSpeed(roadnet.SegmentID(seg), slot)
			if lo <= 0 || hi <= 0 {
				t.Fatalf("speeds must be positive after fallback: seg=%d slot=%d lo=%v hi=%v", seg, slot, lo, hi)
			}
			if lo > hi {
				t.Fatalf("min speed exceeds max: seg=%d slot=%d lo=%v hi=%v", seg, slot, lo, hi)
			}
		}
	}
}

func TestNearSubsetOfFar(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	slot := 10 * 3600 / 300
	for seg := 0; seg < n.NumSegments(); seg += 7 {
		id := roadnet.SegmentID(seg)
		far := map[roadnet.SegmentID]bool{}
		for _, s := range list(idx, Far, id, slot) {
			far[s] = true
		}
		for _, s := range list(idx, Near, id, slot) {
			if !far[s] {
				t.Fatalf("Near(%d) contains %d missing from Far", seg, s)
			}
		}
	}
}

func TestFarIncludesSelfAndSuccessors(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	slot := 10 * 3600 / 300
	id := roadnet.SegmentID(0)
	far := list(idx, Far, id, slot)
	set := map[roadnet.SegmentID]bool{}
	for _, s := range far {
		set[s] = true
	}
	if !set[id] {
		t.Fatal("Far should include the start segment itself")
	}
	// At >= 0.2x free-flow fallback and 300 s budget, immediate successors
	// (at most ~1 km away) must be enterable.
	for _, s := range n.Outgoing(id) {
		if s == n.Segment(id).Reverse {
			continue
		}
		if !set[s] {
			t.Fatalf("Far should include immediate successor %d", s)
		}
	}
}

func TestFarGrowsWithSpeed(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	idx := build(t, n, ds)
	// Rush hour (07:30) vs free night (03:00): observed max speeds are
	// lower in the rush slot, so the Far list should not be larger.
	rushSlot := int(7.5 * 3600 / 300)
	nightSlot := 3 * 3600 / 300
	larger, smaller := 0, 0
	for seg := 0; seg < n.NumSegments(); seg += 5 {
		id := roadnet.SegmentID(seg)
		r := len(list(idx, Far, id, rushSlot))
		f := len(list(idx, Far, id, nightSlot))
		if f > r {
			larger++
		}
		if f < r {
			smaller++
		}
	}
	if larger <= smaller {
		t.Fatalf("night Far lists should generally exceed rush-hour lists (larger=%d smaller=%d)", larger, smaller)
	}
}

func TestListsAreCached(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	if idx.CachedLists() != 0 {
		t.Fatal("fresh index should have no cached lists")
	}
	a := row(idx, Far, 3, 100)
	if idx.CachedLists() != 1 {
		t.Fatalf("CachedLists = %d, want 1", idx.CachedLists())
	}
	if b := row(idx, Far, 3, 100); a.p != b.p {
		t.Fatal("repeated Far should return the materialised row")
	}
	row(idx, Near, 3, 100)
	if idx.CachedLists() != 2 {
		t.Fatalf("CachedLists = %d, want 2", idx.CachedLists())
	}
}

func TestSlotWrapsAround(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	a := list(idx, Far, 0, 5)
	b := list(idx, Far, 0, 5+idx.NumSlots())
	if len(a) != len(b) {
		t.Fatal("slot index should wrap modulo a day")
	}
	c := list(idx, Far, 0, -1)
	d := list(idx, Far, 0, idx.NumSlots()-1)
	if len(c) != len(d) {
		t.Fatal("negative slot should wrap to end of day")
	}
}

func TestNearRequiresFullTraversal(t *testing.T) {
	// Hand-built line: 3 segments of 1 km, min speed fallback makes
	// traversal 1000 / (0.2 * 13.9) ~= 360 s > 300 s budget, so Near of a
	// never-observed network is just... empty (cannot even finish the
	// start segment), while Far (enter-only, fallback 13.9 m/s) reaches
	// several segments.
	b := roadnet.NewBuilder()
	p := geo.Point{Lat: 22.5, Lng: 114.0}
	prev := p
	for i := 0; i < 3; i++ {
		next := geo.Offset(p, float64(i+1)*1000, 0)
		if _, err := b.AddRoad(geo.Polyline{prev, next}, roadnet.Primary, false); err != nil {
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
	near := list(idx, Near, 0, 0)
	if len(near) != 0 {
		t.Fatalf("Near at fallback min speed should be empty, got %v", near)
	}
	far := list(idx, Far, 0, 0)
	if len(far) < 3 {
		t.Fatalf("Far at free-flow should span the line, got %v", far)
	}
}

func TestPrecomputeAllSmall(t *testing.T) {
	b := roadnet.NewBuilder()
	p := geo.Point{Lat: 22.5, Lng: 114.0}
	if _, err := b.AddRoad(geo.Polyline{p, geo.Offset(p, 500, 0)}, roadnet.Primary, false); err != nil {
		t.Fatal(err)
	}
	n := b.Build()
	ds := &traj.Dataset{Days: 1}
	idx, err := Build(n, ds, Config{SlotSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.PrecomputeSlotsCtx(context.Background(), 0, idx.NumSlots()-1, 0); err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, tab := range idx.adjTables() {
		count += tab.size()
	}
	want := 24 * n.NumSegments() * 2 // forward rows; as many reverse
	if count != 2*want {
		t.Fatalf("tables hold %d rows, want %d", count, 2*want)
	}
	if idx.CachedLists() != want {
		t.Fatalf("CachedLists = %d, want %d", idx.CachedLists(), want)
	}
}

func TestObservedSpeedsBeatFallbacks(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	idx := build(t, n, ds)
	// Find a (seg, slot) with known traffic and verify the stats bracket
	// the observed speed.
	mt := &ds.Matched[0]
	v := mt.Visits[len(mt.Visits)/2]
	slot := int(v.EnterSec()) / 300
	lo := idx.MinSpeed(v.Segment, slot)
	hi := idx.MaxSpeed(v.Segment, slot)
	// The Near safety factor halves the stored minimum, so check against
	// the doubled bound.
	if float64(v.Speed) < lo-1e-3 || float64(v.Speed) > hi+1e-3 {
		t.Fatalf("observed speed %v outside [%v, %v]", v.Speed, lo, hi)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	orig := build(t, n, ds)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(n, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SlotSeconds() != orig.SlotSeconds() || got.NumSlots() != orig.NumSlots() {
		t.Fatalf("meta mismatch after load")
	}
	// Spot-check statistics and derived lists.
	for slot := 0; slot < got.NumSlots(); slot += 37 {
		for seg := 0; seg < n.NumSegments(); seg += 19 {
			id := roadnet.SegmentID(seg)
			if got.MinSpeed(id, slot) != orig.MinSpeed(id, slot) ||
				got.MaxSpeed(id, slot) != orig.MaxSpeed(id, slot) ||
				got.MeanSpeed(id, slot) != orig.MeanSpeed(id, slot) ||
				got.Observations(id, slot) != orig.Observations(id, slot) {
				t.Fatalf("stats differ at seg=%d slot=%d", seg, slot)
			}
			a, b := list(orig, Far, id, slot), list(got, Far, id, slot)
			if len(a) != len(b) {
				t.Fatalf("Far list differs at seg=%d slot=%d", seg, slot)
			}
		}
	}
	// Reverse tables must also work on the loaded index.
	if len(list(got, FarReverse, 0, 0)) == 0 {
		t.Fatal("loaded index reverse tables broken")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	n := testNetwork(t)
	if _, err := Load(n, bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic should error")
	}
	orig := build(t, n, testDataset(t, n))
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(n, bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated input should error")
	}
	// Wrong network size.
	other, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin: geo.Point{Lat: 22.5, Lng: 114.0}, Rows: 3, Cols: 3, SpacingMeters: 500, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(other, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("network mismatch should error")
	}
}
