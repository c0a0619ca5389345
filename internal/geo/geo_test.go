package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Shenzhen city centre, the paper's evaluation city.
var shenzhen = Point{Lat: 22.5431, Lng: 114.0579}

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64 // metres
		tol  float64 // relative tolerance
	}{
		{"same point", shenzhen, shenzhen, 0, 0},
		{"shenzhen to hongkong", shenzhen, Point{22.3193, 114.1694}, 27500, 0.05},
		{"one degree lat at equator", Point{0, 0}, Point{1, 0}, 111195, 0.001},
		{"one degree lng at equator", Point{0, 0}, Point{0, 1}, 111195, 0.001},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Haversine(tc.a, tc.b)
			if tc.want == 0 {
				if got != 0 {
					t.Fatalf("Haversine = %v, want 0", got)
				}
				return
			}
			if rel := math.Abs(got-tc.want) / tc.want; rel > tc.tol {
				t.Fatalf("Haversine = %v, want %v (+-%.1f%%)", got, tc.want, tc.tol*100)
			}
		})
	}
}

func TestDistanceMatchesHaversineAtCityScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := Offset(shenzhen, rng.Float64()*40000-20000, rng.Float64()*40000-20000)
		b := Offset(shenzhen, rng.Float64()*40000-20000, rng.Float64()*40000-20000)
		h := Haversine(a, b)
		e := Distance(a, b)
		if h < 1 {
			continue
		}
		if rel := math.Abs(h-e) / h; rel > 0.002 {
			t.Fatalf("equirectangular diverges: a=%v b=%v haversine=%v equirect=%v rel=%v", a, b, h, e, rel)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(dlat1, dlng1, dlat2, dlng2 float64) bool {
		a := Point{Lat: 22 + math.Mod(math.Abs(dlat1), 1), Lng: 114 + math.Mod(math.Abs(dlng1), 1)}
		b := Point{Lat: 22 + math.Mod(math.Abs(dlat2), 1), Lng: 114 + math.Mod(math.Abs(dlng2), 1)}
		return math.Abs(Distance(a, b)-Distance(b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	for _, d := range []struct{ e, n float64 }{{100, 0}, {0, 100}, {-250, 400}, {1234, -987}} {
		p := Offset(shenzhen, d.e, d.n)
		want := math.Hypot(d.e, d.n)
		got := Distance(shenzhen, p)
		if math.Abs(got-want) > want*0.01+0.5 {
			t.Fatalf("Offset(%v,%v): distance %v, want ~%v", d.e, d.n, got, want)
		}
	}
}

func TestMBRBasics(t *testing.T) {
	var m MBR
	if !m.Empty() {
		t.Fatal("zero MBR should be empty")
	}
	if m.Contains(shenzhen) {
		t.Fatal("empty MBR should contain nothing")
	}
	m.Expand(shenzhen)
	if m.Empty() || !m.Contains(shenzhen) {
		t.Fatal("after Expand, MBR should contain the point")
	}
	p2 := Offset(shenzhen, 1000, 1000)
	m.Expand(p2)
	if !m.Contains(Lerp(shenzhen, p2, 0.5)) {
		t.Fatal("MBR should contain midpoint of its corners")
	}
	if m.MaxLat <= m.MinLat || m.MaxLng <= m.MinLng {
		t.Fatal("non-degenerate MBR should have positive area")
	}
}

func TestMBRIntersects(t *testing.T) {
	a := NewMBR(Point{0, 0}, Point{2, 2})
	b := NewMBR(Point{1, 1}, Point{3, 3})
	c := NewMBR(Point{5, 5}, Point{6, 6})
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("overlapping MBRs should intersect")
	}
	if a.Intersects(c) {
		t.Fatal("disjoint MBRs should not intersect")
	}
	var empty MBR
	if a.Intersects(empty) || empty.Intersects(a) {
		t.Fatal("empty MBR intersects nothing")
	}
	// Touching edges count as intersecting.
	d := NewMBR(Point{2, 2}, Point{4, 4})
	if !a.Intersects(d) {
		t.Fatal("edge-touching MBRs should intersect")
	}
}

func TestMBRContainsMBR(t *testing.T) {
	outer := NewMBR(Point{0, 0}, Point{10, 10})
	inner := NewMBR(Point{2, 2}, Point{3, 3})
	if !outer.ContainsMBR(inner) {
		t.Fatal("outer should contain inner")
	}
	if inner.ContainsMBR(outer) {
		t.Fatal("inner should not contain outer")
	}
	if !outer.ContainsMBR(outer) {
		t.Fatal("MBR should contain itself")
	}
}

func TestMBRBuffer(t *testing.T) {
	m := NewMBR(shenzhen, Offset(shenzhen, 1000, 1000))
	buf := m.Buffer(500)
	if !buf.ContainsMBR(m) {
		t.Fatal("buffered MBR must contain the original")
	}
	// The buffered edge should be ~500 m outside.
	d := Distance(Point{Lat: m.MinLat, Lng: m.MinLng}, Point{Lat: buf.MinLat, Lng: m.MinLng})
	if math.Abs(d-500) > 50 {
		t.Fatalf("buffer expanded by %v m, want ~500", d)
	}
}

func TestMBRDistanceTo(t *testing.T) {
	m := NewMBR(shenzhen, Offset(shenzhen, 1000, 1000))
	if d := m.DistanceTo(m.Center()); d != 0 {
		t.Fatalf("distance from inside point = %v, want 0", d)
	}
	outside := Offset(shenzhen, -300, 500)
	d := m.DistanceTo(outside)
	if math.Abs(d-300) > 15 {
		t.Fatalf("distance from outside point = %v, want ~300", d)
	}
}

func TestPolylineLength(t *testing.T) {
	pl := Polyline{
		shenzhen,
		Offset(shenzhen, 1000, 0),
		Offset(shenzhen, 1000, 1000),
	}
	got := pl.Length()
	if math.Abs(got-2000) > 20 {
		t.Fatalf("Length = %v, want ~2000", got)
	}
	if (Polyline{}).Length() != 0 || (Polyline{shenzhen}).Length() != 0 {
		t.Fatal("degenerate polylines have zero length")
	}
}

func TestPolylinePointAt(t *testing.T) {
	pl := Polyline{shenzhen, Offset(shenzhen, 1000, 0)}
	mid := pl.PointAt(500)
	if d := Distance(shenzhen, mid); math.Abs(d-500) > 10 {
		t.Fatalf("PointAt(500) is %v m from start, want ~500", d)
	}
	if pl.PointAt(-5) != pl[0] {
		t.Fatal("PointAt clamps below to start")
	}
	end := pl.PointAt(99999)
	if Distance(end, pl[1]) > 1 {
		t.Fatal("PointAt clamps above to end")
	}
}

func TestPolylineProject(t *testing.T) {
	pl := Polyline{shenzhen, Offset(shenzhen, 1000, 0)}
	// A point 200 m north of the 400 m mark.
	q := Offset(shenzhen, 400, 200)
	closest, dist, along := pl.Project(q)
	if math.Abs(dist-200) > 10 {
		t.Fatalf("Project distance = %v, want ~200", dist)
	}
	if math.Abs(along-400) > 10 {
		t.Fatalf("Project along = %v, want ~400", along)
	}
	if d := Distance(closest, Offset(shenzhen, 400, 0)); d > 10 {
		t.Fatalf("projected point off by %v m", d)
	}
}

func TestPolylineProjectBeyondEnds(t *testing.T) {
	pl := Polyline{shenzhen, Offset(shenzhen, 1000, 0)}
	before := Offset(shenzhen, -300, 0)
	_, dist, along := pl.Project(before)
	if math.Abs(dist-300) > 10 || along > 5 {
		t.Fatalf("projection before start: dist=%v along=%v", dist, along)
	}
	after := Offset(shenzhen, 1300, 0)
	_, dist, along = pl.Project(after)
	if math.Abs(dist-300) > 10 || math.Abs(along-1000) > 10 {
		t.Fatalf("projection past end: dist=%v along=%v", dist, along)
	}
}

func TestPolylineSplitAt(t *testing.T) {
	pl := Polyline{
		shenzhen,
		Offset(shenzhen, 1000, 0),
		Offset(shenzhen, 2000, 0),
	}
	a, b := pl.SplitAt(500)
	if math.Abs(a.Length()-500) > 10 {
		t.Fatalf("first half length = %v, want ~500", a.Length())
	}
	if math.Abs(b.Length()-1500) > 15 {
		t.Fatalf("second half length = %v, want ~1500", b.Length())
	}
	if a[len(a)-1] != b[0] {
		t.Fatal("halves must share the split point")
	}
	total := a.Length() + b.Length()
	if math.Abs(total-pl.Length()) > 1 {
		t.Fatalf("split halves length %v != original %v", total, pl.Length())
	}
}

func TestPolylineSplitAtVertex(t *testing.T) {
	pl := Polyline{shenzhen, Offset(shenzhen, 1000, 0), Offset(shenzhen, 2000, 0)}
	a, b := pl.SplitAt(pl.Length() / 2)
	if len(a) < 2 || len(b) < 2 {
		t.Fatalf("split at interior vertex gave halves of %d and %d points", len(a), len(b))
	}
}

func TestPolylineSplitPreservesLengthProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(8)
		pl := make(Polyline, n)
		pl[0] = shenzhen
		for j := 1; j < n; j++ {
			pl[j] = Offset(pl[j-1], rng.Float64()*500+1, rng.Float64()*500+1)
		}
		total := pl.Length()
		dist := rng.Float64() * total
		a, b := pl.SplitAt(dist)
		if math.Abs(a.Length()+b.Length()-total) > total*0.001+0.1 {
			t.Fatalf("iteration %d: split lengths %v+%v != %v", i, a.Length(), b.Length(), total)
		}
	}
}

func TestPolylineReverse(t *testing.T) {
	pl := Polyline{shenzhen, Offset(shenzhen, 500, 0), Offset(shenzhen, 500, 700)}
	rev := pl.Reverse()
	if rev[0] != pl[2] || rev[2] != pl[0] {
		t.Fatal("Reverse should flip endpoints")
	}
	if math.Abs(rev.Length()-pl.Length()) > 1e-6 {
		t.Fatal("Reverse must preserve length")
	}
}

func TestPointValid(t *testing.T) {
	if !shenzhen.Valid() {
		t.Fatal("shenzhen should be valid")
	}
	for _, p := range []Point{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}} {
		if p.Valid() {
			t.Fatalf("%v should be invalid", p)
		}
	}
}
