package router

import (
	"context"
	"sync"
	"testing"

	"streach/internal/conindex"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/traj"
)

var bg = context.Background()

type world struct {
	net *roadnet.Network
	con *conindex.Index
}

var (
	wOnce sync.Once
	w     *world
	wErr  error
)

func getWorld(t *testing.T) *world {
	t.Helper()
	wOnce.Do(func() {
		net, err := roadnet.Generate(roadnet.GenerateConfig{
			Origin:        geo.Point{Lat: 22.5, Lng: 114.0},
			Rows:          8,
			Cols:          8,
			SpacingMeters: 900,
			LocalFraction: 0.4,
			Seed:          17,
		})
		if err != nil {
			wErr = err
			return
		}
		ds, err := traj.Simulate(net, traj.SimConfig{
			Taxis: 60, Days: 6, Profile: traj.DefaultSpeedProfile(), Seed: 18,
		})
		if err != nil {
			wErr = err
			return
		}
		con, err := conindex.Build(net, ds, conindex.Config{SlotSeconds: 300})
		if err != nil {
			wErr = err
			return
		}
		w = &world{net: net, con: con}
	})
	if wErr != nil {
		t.Fatal(wErr)
	}
	return w
}

// corners returns two far-apart segments.
func corners(w *world) (roadnet.SegmentID, roadnet.SegmentID) {
	b := w.net.Bounds()
	src, _, _, _ := w.net.SnapPoint(geo.Point{Lat: b.MinLat, Lng: b.MinLng})
	dst, _, _, _ := w.net.SnapPoint(geo.Point{Lat: b.MaxLat, Lng: b.MaxLng})
	return src, dst
}

func TestTimeDependentRouteIsValid(t *testing.T) {
	w := getWorld(t)
	r := New(w.net, w.con)
	src, dst := corners(w)
	route, err := r.TimeDependent(bg, src, dst, 11*3600)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(route); err != nil {
		t.Fatal(err)
	}
	if route.Path[0] != src || route.Path[len(route.Path)-1] != dst {
		t.Fatal("route must start at src and end at dst")
	}
	if route.TravelTimeSec <= 0 || route.DistanceMeters <= 0 {
		t.Fatalf("degenerate route: %+v", route)
	}
}

func TestRushHourSlowerThanNight(t *testing.T) {
	w := getWorld(t)
	r := New(w.net, w.con)
	src, dst := corners(w)
	night, err := r.TimeDependent(bg, src, dst, 3*3600)
	if err != nil {
		t.Fatal(err)
	}
	rush, err := r.TimeDependent(bg, src, dst, 7.5*3600)
	if err != nil {
		t.Fatal(err)
	}
	if rush.TravelTimeSec <= night.TravelTimeSec {
		t.Fatalf("rush-hour ETA (%v s) should exceed night ETA (%v s)",
			rush.TravelTimeSec, night.TravelTimeSec)
	}
}

func TestFreeFlowIsLowerBound(t *testing.T) {
	w := getWorld(t)
	r := New(w.net, w.con)
	src, dst := corners(w)
	ff, err := r.FreeFlow(bg, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{3, 8, 12, 18} {
		td, err := r.TimeDependent(bg, src, dst, h*3600)
		if err != nil {
			t.Fatal(err)
		}
		// Mean observed speeds are below free flow, so the static ETA is
		// optimistic (allow a hair of slack for route differences).
		if td.TravelTimeSec < ff.TravelTimeSec*0.95 {
			t.Fatalf("time-dependent ETA at %02.0f:00 (%v) beats free flow (%v)",
				h, td.TravelTimeSec, ff.TravelTimeSec)
		}
	}
}

func TestSelfRoute(t *testing.T) {
	w := getWorld(t)
	r := New(w.net, w.con)
	route, err := r.TimeDependent(bg, 5, 5, 10*3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Path) != 1 || route.Path[0] != 5 {
		t.Fatalf("self route = %v", route.Path)
	}
	if route.TravelTimeSec <= 0 {
		t.Fatal("traversing the start segment takes time")
	}
}

func TestRouteValidation(t *testing.T) {
	w := getWorld(t)
	r := New(w.net, w.con)
	if _, err := r.TimeDependent(bg, -1, 5, 0); err == nil {
		t.Fatal("negative src should error")
	}
	if _, err := r.TimeDependent(bg, 0, roadnet.SegmentID(w.net.NumSegments()), 0); err == nil {
		t.Fatal("out-of-range dst should error")
	}
	if _, err := r.TimeDependent(bg, 0, 5, 90000); err == nil {
		t.Fatal("departure past midnight should error")
	}
	if err := r.Validate(&Route{}); err == nil {
		t.Fatal("empty route should fail validation")
	}
}

func TestETAProfileShape(t *testing.T) {
	w := getWorld(t)
	r := New(w.net, w.con)
	src, dst := corners(w)
	// The ETA-by-time-of-day curve: one time-dependent route per hour.
	var profile [24]float64
	for h := range profile {
		route, err := r.TimeDependent(bg, src, dst, float64(h)*3600)
		if err != nil {
			t.Fatal(err)
		}
		profile[h] = route.TravelTimeSec
	}
	// The profile must dip at night relative to the evening rush.
	if profile[18] <= profile[3] {
		t.Fatalf("ETA at 18:00 (%v) should exceed 03:00 (%v)", profile[18], profile[3])
	}
	for h, eta := range profile {
		if eta <= 0 {
			t.Fatalf("hour %d has non-positive ETA", h)
		}
	}
}

func TestMeanSpeedStatistics(t *testing.T) {
	w := getWorld(t)
	// Mean must lie within [min, max] wherever observations exist.
	checked := 0
	for slot := 0; slot < w.con.NumSlots(); slot += 11 {
		for seg := 0; seg < w.net.NumSegments(); seg += 13 {
			id := roadnet.SegmentID(seg)
			if w.con.Observations(id, slot) == 0 {
				continue
			}
			mean := w.con.MeanSpeed(id, slot)
			// Note: stored minima carry the Near safety factor (0.5x), so
			// compare against twice the stored minimum.
			lo := w.con.MinSpeed(id, slot) * 2
			hi := w.con.MaxSpeed(id, slot)
			if mean < lo-0.01 || mean > hi+0.01 {
				t.Fatalf("mean %v outside [%v, %v] at seg=%d slot=%d", mean, lo, hi, seg, slot)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no observed (segment, slot) pairs checked")
	}
}
