package streach

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	sysOnce sync.Once
	testSys *System
	sysErr  error
)

// smallCity is the shared fixture's road network.
var smallCity = CityConfig{
	OriginLat: 22.50, OriginLng: 114.00,
	Rows: 8, Cols: 8,
	SpacingMeters:   900,
	LocalFraction:   0.4,
	ResegmentMeters: 450,
	Seed:            3,
}

// smallSystem builds a small shared system once for all facade tests.
func smallSystem(t testing.TB) *System {
	t.Helper()
	sysOnce.Do(func() {
		fleet := FleetConfig{Taxis: 80, Days: 6, Seed: 4}
		// The shared fixture disables the cross-batch plan cache: many
		// tests here pin per-execution observables (cancellation
		// checkpoints, IO and cache counters) that a cached plan would
		// legitimately skip. The cache has its own tests over dedicated
		// systems (plancache_test.go).
		idx := DefaultIndexConfig()
		idx.PlanCache = -1
		testSys, sysErr = NewSystem(smallCity, fleet, idx)
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return testSys
}

func testQuery(s *System) Request {
	return ReachRequest(s.BusiestLocation(11*time.Hour), 11*time.Hour, 10*time.Minute, 0.2)
}

// warmWindow precomputes the Con-Index tables a query over the window touches.
func warmWindow(t testing.TB, s *System, start, dur time.Duration) {
	t.Helper()
	if err := s.WarmCtx(context.Background(), start, dur); err != nil {
		t.Fatal(err)
	}
}

func TestNewSystemAndStats(t *testing.T) {
	s := smallSystem(t)
	st := s.Stats()
	if st.Segments == 0 || st.Vertices == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Taxis != 80 || st.Days != 6 {
		t.Fatalf("fleet stats wrong: %+v", st)
	}
	if st.SlotSeconds != 300 {
		t.Fatalf("slot seconds = %d", st.SlotSeconds)
	}
	if st.RoadKm <= 0 || st.Visits == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReach(t *testing.T) {
	s := smallSystem(t)
	region, err := s.Do(context.Background(), testQuery(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(region.SegmentIDs) == 0 {
		t.Fatal("empty region from busiest location at 11:00")
	}
	if region.RoadKm <= 0 {
		t.Fatal("region should have road length")
	}
	if region.Metrics.MaxRegion < len(region.SegmentIDs) {
		t.Fatalf("max region %d < result %d", region.Metrics.MaxRegion, len(region.SegmentIDs))
	}
	for i := 1; i < len(region.SegmentIDs); i++ {
		if region.SegmentIDs[i-1] >= region.SegmentIDs[i] {
			t.Fatal("segment IDs should be ascending and unique")
		}
	}
}

func TestReachESSlowerButVerifiesMore(t *testing.T) {
	s := smallSystem(t)
	q := testQuery(s)
	fast, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := s.Do(context.Background(), q, WithAlgorithm(AlgoExhaustive))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Metrics.Evaluated <= fast.Metrics.Evaluated {
		t.Fatalf("ES evaluated %d, SQMB+TBS %d: baseline should verify more segments",
			slow.Metrics.Evaluated, fast.Metrics.Evaluated)
	}
}

func TestReachMulti(t *testing.T) {
	s := smallSystem(t)
	q := testQuery(s)
	loc := q.Locations[0]
	locs := []Location{
		loc,
		{loc.Lat + 0.01, loc.Lng},
		{loc.Lat, loc.Lng + 0.01},
	}
	mq := MultiRequest(locs, q.Start, q.Duration, q.Prob)
	m, err := s.Do(context.Background(), mq)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := s.Do(context.Background(), mq, WithAlgorithm(AlgoSequential))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.SegmentIDs) == 0 || len(seq.SegmentIDs) == 0 {
		t.Fatal("multi-location queries should find regions")
	}
	// The m-query region must cover (most of) each single region's union;
	// check it at least covers the single-location region.
	one, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, id := range one.SegmentIDs {
		if m.Contains(id) {
			covered++
		}
	}
	if frac := float64(covered) / float64(len(one.SegmentIDs)); frac < 0.8 {
		t.Fatalf("m-query covers only %.0f%% of the first s-query region", frac*100)
	}
}

// TestQueryValidationSurfacesErrors: the common caller mistakes reach the
// caller as a typed *Error carrying InvalidRequest, not as a bare error.
func TestQueryValidationSurfacesErrors(t *testing.T) {
	s := smallSystem(t)
	zeroProb, zeroDur := testQuery(s), testQuery(s)
	zeroProb.Prob = 0
	zeroDur.Duration = 0
	for name, req := range map[string]Request{
		"Prob=0":        zeroProb,
		"zero duration": zeroDur,
		"no locations":  MultiRequest(nil, 11*time.Hour, 10*time.Minute, 0.2),
	} {
		_, err := s.Do(context.Background(), req)
		var e *Error
		if !errors.As(err, &e) || e.Code != InvalidRequest {
			t.Fatalf("%s: got %v, want a *Error with InvalidRequest", name, err)
		}
	}
}

func TestGeoJSONWellFormed(t *testing.T) {
	s := smallSystem(t)
	region, err := s.Do(context.Background(), testQuery(s))
	if err != nil {
		t.Fatal(err)
	}
	gj, err := region.GeoJSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Type     string `json:"type"`
		Features []struct {
			Type     string `json:"type"`
			Geometry struct {
				Type        string       `json:"type"`
				Coordinates [][2]float64 `json:"coordinates"`
			} `json:"geometry"`
			Properties map[string]interface{} `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal([]byte(gj), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if parsed.Type != "FeatureCollection" {
		t.Fatalf("type = %q", parsed.Type)
	}
	if len(parsed.Features) != len(region.SegmentIDs) {
		t.Fatalf("features = %d, want %d", len(parsed.Features), len(region.SegmentIDs))
	}
	for _, f := range parsed.Features {
		if f.Geometry.Type != "LineString" {
			t.Fatalf("geometry type = %q", f.Geometry.Type)
		}
		if f.Properties["segment"] == nil || f.Properties["class"] == nil {
			t.Fatal("missing properties")
		}
	}
}

func TestRegionBounds(t *testing.T) {
	s := smallSystem(t)
	region, err := s.Do(context.Background(), testQuery(s))
	if err != nil {
		t.Fatal(err)
	}
	minLat, minLng, maxLat, maxLng, ok := region.Bounds()
	if !ok {
		t.Fatal("bounds should exist")
	}
	if minLat >= maxLat || minLng >= maxLng {
		t.Fatalf("degenerate bounds: %v %v %v %v", minLat, minLng, maxLat, maxLng)
	}
	empty := &Region{sys: s}
	if _, _, _, _, ok := empty.Bounds(); ok {
		t.Fatal("empty region should have no bounds")
	}
}

func TestRegionContains(t *testing.T) {
	r := &Region{SegmentIDs: []int32{1, 4, 9}}
	for _, id := range []int32{1, 4, 9} {
		if !r.Contains(id) {
			t.Fatalf("Contains(%d) = false", id)
		}
	}
	for _, id := range []int32{0, 2, 10} {
		if r.Contains(id) {
			t.Fatalf("Contains(%d) = true", id)
		}
	}
}

func TestFileBackedSystem(t *testing.T) {
	city := CityConfig{
		OriginLat: 22.50, OriginLng: 114.00,
		Rows: 4, Cols: 4, SpacingMeters: 800, LocalFraction: 0.3,
		ResegmentMeters: 400, Seed: 9,
	}
	fleet := FleetConfig{Taxis: 20, Days: 3, Seed: 9}
	idx := DefaultIndexConfig()
	idx.PageFile = filepath.Join(t.TempDir(), "pages.db")
	sys, err := NewSystem(city, fleet, idx)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	loc := sys.BusiestLocation(10 * time.Hour)
	region, err := sys.Do(context.Background(), ReachRequest(loc, 10*time.Hour, 10*time.Minute, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if region.Metrics.PageReads == 0 && region.Metrics.PageHits == 0 {
		t.Fatal("file-backed query should touch pages")
	}
}

func TestBusiestLocationDeterministic(t *testing.T) {
	s := smallSystem(t)
	a := s.BusiestLocation(11 * time.Hour)
	b := s.BusiestLocation(11 * time.Hour)
	if a != b {
		t.Fatal("BusiestLocation should be deterministic")
	}
}

func TestRouteTimeDependent(t *testing.T) {
	s := smallSystem(t)
	loc := s.BusiestLocation(11 * time.Hour)
	far := Location{Lat: loc.Lat + 0.03, Lng: loc.Lng + 0.03}
	route := func(req Request, opts ...Option) *RouteResult {
		t.Helper()
		region, err := s.Do(context.Background(), req, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return region.Route
	}
	night := route(RouteRequest(loc, far, 3*time.Hour))
	rush := route(RouteRequest(loc, far, 18*time.Hour))
	if rush.TravelTime <= night.TravelTime {
		t.Fatalf("rush ETA %v should exceed night ETA %v", rush.TravelTime, night.TravelTime)
	}
	ff := route(RouteRequest(loc, far, 0), WithAlgorithm(AlgoFreeFlow))
	if ff.TravelTime > night.TravelTime {
		t.Fatalf("free-flow ETA %v should be the optimistic bound (night %v)", ff.TravelTime, night.TravelTime)
	}
	if len(ff.SegmentIDs) == 0 || ff.DistanceKm <= 0 {
		t.Fatalf("degenerate free-flow route: %+v", ff)
	}
}

func TestLeafletHTML(t *testing.T) {
	s := smallSystem(t)
	region, err := s.Do(context.Background(), testQuery(s))
	if err != nil {
		t.Fatal(err)
	}
	html, err := region.LeafletHTML("test region")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "leaflet", "FeatureCollection", "test region", "fitBounds"} {
		if !strings.Contains(html, want) {
			t.Fatalf("leaflet page missing %q", want)
		}
	}
	empty := &Region{sys: s}
	if _, err := empty.LeafletHTML("empty"); err == nil {
		t.Fatal("empty region should not render")
	}
}

func TestSystemSaveOpenRoundTrip(t *testing.T) {
	s := smallSystem(t)
	reopened := variant(t, vcfg{saved: true})
	checkOracle(t, reference(t), serial(reopened), requestMatrix(s, 11*time.Hour).full)
	// Stats must survive too.
	if reopened.Stats() != s.Stats() {
		t.Fatalf("stats differ after reopen: %+v vs %+v", reopened.Stats(), s.Stats())
	}
}

func TestOpenSystemMissingDir(t *testing.T) {
	if _, err := OpenSystem(filepath.Join(t.TempDir(), "nope"), DefaultIndexConfig()); err == nil {
		t.Fatal("missing directory should error")
	}
}

func TestRegionProbabilities(t *testing.T) {
	s := smallSystem(t)
	region, err := s.Do(context.Background(), testQuery(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(region.Probabilities) != len(region.SegmentIDs) {
		t.Fatalf("probabilities (%d) not parallel to segments (%d)",
			len(region.Probabilities), len(region.SegmentIDs))
	}
	verified := 0
	for _, p := range region.Probabilities {
		switch {
		case p == -1:
			// admitted unverified (min bounding region)
		case p >= float32(0.2) && p <= 1:
			verified++
		default:
			t.Fatalf("probability %v out of range", p)
		}
	}
	if verified == 0 {
		t.Fatal("no verified probabilities in the result")
	}
	// ES verifies everything, so no -1 entries.
	es, err := s.Do(context.Background(), testQuery(s), WithAlgorithm(AlgoExhaustive))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range es.Probabilities {
		if p == -1 {
			t.Fatal("ES result should have no unverified segments")
		}
	}
}

// TestShardTablesAgree: on every layout the per-shard stats table
// covers exactly the shards Shards() reports, so /healthz and the
// Prometheus shard series see the last shard.
func TestShardTablesAgree(t *testing.T) {
	sys := variant(t, vcfg{})
	for _, k := range []int{2, 3, 4} {
		if err := sys.Shard(k); err != nil {
			t.Fatal(err)
		}
		if n := sys.Shards(); n != k || len(sys.ShardStats()) != n {
			t.Fatalf("Shard(%d): Shards()=%d, %d stats", k, n, len(sys.ShardStats()))
		}
	}
}
