package router

import (
	"fmt"
	"reflect"
	"testing"

	"streach/internal/conindex"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/traj"
)

// refRoutes answers like TimeDependent and FreeFlow through refRoute.
func refRoutes(r *Router) (timeDependent func(src, dst roadnet.SegmentID, departSec float64) (*Route, error), freeFlow func(src, dst roadnet.SegmentID) (*Route, error)) {
	timeDependent = func(src, dst roadnet.SegmentID, departSec float64) (*Route, error) {
		return r.refRoute(bg, src, dst, departSec, func(seg roadnet.SegmentID, atSec float64) float64 {
			slot := int(atSec) / r.con.SlotSeconds()
			return r.con.MeanSpeed(seg, slot)
		})
	}
	freeFlow = func(src, dst roadnet.SegmentID) (*Route, error) {
		return r.refRoute(bg, src, dst, 0, func(seg roadnet.SegmentID, _ float64) float64 {
			return r.net.Segment(seg).Class.FreeFlowSpeed()
		})
	}
	return timeDependent, freeFlow
}

// sameRoute requires identical answers: paths, times and distances bit
// for bit, or the same error.
func sameRoute(t *testing.T, tag string, got, want *Route, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: route %+v (err %v), reference %+v (err %v)", tag, got, gotErr, want, wantErr)
	}
}

// checkRoutesMatch holds TimeDependent, FreeFlow and a tie-heavy
// one-second route to the reference between every src in srcs and a
// spread of destinations.
func checkRoutesMatch(t *testing.T, name string, net *roadnet.Network, con *conindex.Index, srcs []roadnet.SegmentID, dsts func(roadnet.SegmentID) []roadnet.SegmentID) {
	r := New(net, con)
	refTD, refFF := refRoutes(r)
	// Every segment takes one second, so arrivals tie wherever two
	// paths have as many segments.
	second := func(seg roadnet.SegmentID, _ float64) float64 { return net.Segment(seg).Length }
	for _, src := range srcs {
		for _, dst := range dsts(src) {
			got, err := r.route(bg, src, dst, 0, second)
			want, wantErr := r.refRoute(bg, src, dst, 0, second)
			sameRoute(t, fmt.Sprintf("%s one-second %d->%d", name, src, dst), got, want, err, wantErr)
			got, err = r.FreeFlow(bg, src, dst)
			want, wantErr = refFF(src, dst)
			sameRoute(t, fmt.Sprintf("%s free-flow %d->%d", name, src, dst), got, want, err, wantErr)
			for _, h := range []float64{3, 8.5, 18} {
				got, err := r.TimeDependent(bg, src, dst, h*3600)
				want, wantErr := refTD(src, dst, h*3600)
				sameRoute(t, fmt.Sprintf("%s %vh %d->%d", name, h, src, dst), got, want, err, wantErr)
			}
		}
	}
}

// TestRouteMatchesReference holds the route search to its old
// map-and-container/heap form on re-segmented generated cities with
// simulated speeds, and on a hand-built net of dead ends with fallback
// speeds only.
func TestRouteMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		raw, err := roadnet.Generate(roadnet.GenerateConfig{
			Origin: geo.Point{Lat: 22.5, Lng: 114.0}, Rows: 6, Cols: 6, SpacingMeters: 900, LocalFraction: 0.4, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		net, err := roadnet.Resegment(raw, 450)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := traj.Simulate(net, traj.SimConfig{Taxis: 30, Days: 4, Profile: traj.DefaultSpeedProfile(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		con, err := conindex.Build(net, ds, conindex.Config{SlotSeconds: 300})
		if err != nil {
			t.Fatal(err)
		}
		n := net.NumSegments()
		var srcs []roadnet.SegmentID
		for s := 0; s < n; s += 41 {
			srcs = append(srcs, roadnet.SegmentID(s))
		}
		checkRoutesMatch(t, fmt.Sprintf("seed %d", seed), net, con, srcs, func(src roadnet.SegmentID) []roadnet.SegmentID {
			return []roadnet.SegmentID{src, roadnet.SegmentID((int(src)*31 + 7) % n), roadnet.SegmentID(n - 1 - int(src))}
		})
	}

	// A two-way chain a-b-c with a two-way spur b-d and a one-way stub
	// c->e: d is a dead end the route may U-turn at, e one it cannot
	// leave, and nothing leads back to a one-way feeder f->a.
	o := geo.Point{Lat: 22.5, Lng: 114.0}
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
	net := b.Build()
	con, err := conindex.Build(net, &traj.Dataset{Days: 1}, conindex.Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	var all []roadnet.SegmentID
	for s := 0; s < net.NumSegments(); s++ {
		all = append(all, roadnet.SegmentID(s))
	}
	checkRoutesMatch(t, "dead ends", net, con, all, func(roadnet.SegmentID) []roadnet.SegmentID { return all })
}
