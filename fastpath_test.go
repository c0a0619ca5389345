package streach

import (
	"context"
	"testing"
	"time"

	"streach/internal/roadnet"
)

// TestConcurrentReach hammers one System with the request matrix from
// eight concurrent clients (run under -race in CI): every answer must
// match the offline build's exactly — on the shared fixture, whose plan
// store parks nothing, so clients only share plans being built, and on a
// system with the default store, where each valid shape is built once
// and every request is counted once, as a hit, a miss or a coalesced
// wait.
func TestConcurrentReach(t *testing.T) {
	s := smallSystem(t)
	checkOracle(t, reference(t), clients(s, 8), requestMatrix(s, 11*time.Hour).full)

	fresh := variant(t, vcfg{})
	reqs := valid(requestMatrix(fresh, 11*time.Hour).full)
	checkOracle(t, reference(t), clients(fresh, 8), reqs)
	st := fresh.SharingStats()
	if got := st.PlanCacheHits + st.PlanCacheMisses + st.QueriesCoalesced; got != int64(8*len(reqs)) {
		t.Fatalf("%d requests counted, %d answered: %+v", got, 8*len(reqs), st)
	}
	if shapes := int64(len(byKind(reqs))); st.PlanCacheMisses != shapes {
		t.Fatalf("%d plans built for %d shapes", st.PlanCacheMisses, shapes)
	}
}

// TestCacheMetricsSurfaced checks the decoded time-list cache counters
// reach the public Metrics: a repeated query must report hits (on the
// start list it decodes into a probe set; candidates never touch the
// cache).
func TestCacheMetricsSurfaced(t *testing.T) {
	s := smallSystem(t)
	q := testQuery(s)
	if _, err := s.Do(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics.TLCacheHits == 0 {
		t.Fatalf("repeat query should hit the decoded cache, metrics: %+v", warm.Metrics)
	}
}

// TestWarmCrossingMidnight regression-tests the end-of-day cap: warming a
// window that runs past midnight must not precompute wrapped slots. With
// the cap, 23:55+30min warms exactly one slot (the last of the day), so
// the lists-per-slot ratio of the Con-Index must stay finite and small.
func TestWarmCrossingMidnight(t *testing.T) {
	// A private system: the shared one would pollute slot counts.
	city := CityConfig{
		OriginLat: 22.50, OriginLng: 114.00,
		Rows: 4, Cols: 4,
		SpacingMeters:   900,
		LocalFraction:   0,
		ResegmentMeters: 450,
		Seed:            9,
	}
	sys, err := NewSystem(city, FleetConfig{Taxis: 10, Days: 2, Seed: 5}, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	before := sys.con.CachedLists()
	warmWindow(t, sys, 23*time.Hour+55*time.Minute, 30*time.Minute)
	after := sys.con.CachedLists()
	// One slot (the day's last) => exactly 2*NumSegments lists. Without
	// the cap the wrapped early-morning slots warm too, tripling this.
	want := 2 * sys.Network().NumSegments()
	if after-before != want {
		t.Fatalf("midnight-crossing Warm materialised %d lists, want %d (one slot)", after-before, want)
	}
	// Entirely past the end of the day: a no-op, not a wrap-around.
	warmWindow(t, sys, 24*time.Hour-time.Nanosecond, time.Hour)
	if sys.con.CachedLists() != after {
		t.Fatal("Warm past midnight should be a no-op")
	}
}

// TestBusiestLocationMatchesNestedMapScan pins the flat-bitmask rewrite
// against a straightforward nested-map reference implementation.
func TestBusiestLocationMatchesNestedMapScan(t *testing.T) {
	s := smallSystem(t)
	tod := 11 * time.Hour
	lo, hi := tod, tod+5*time.Minute
	type segDay struct {
		seg int32
		day int16
	}
	seen := map[segDay]bool{}
	counts := map[int32]int{}
	for i := range s.ds.Matched {
		mt := &s.ds.Matched[i]
		for _, v := range mt.Visits {
			enter := time.Duration(v.EnterMs) * time.Millisecond
			if enter >= lo && enter < hi {
				k := segDay{int32(v.Segment), int16(mt.Day)}
				if !seen[k] {
					seen[k] = true
					counts[k.seg]++
				}
			}
		}
	}
	bestSeg, bestN := int32(0), -1
	for seg, n := range counts {
		if n > bestN || (n == bestN && seg < bestSeg) {
			bestSeg, bestN = seg, n
		}
	}
	wantMid := s.net.Segment(roadnet.SegmentID(bestSeg)).Midpoint()
	got := s.BusiestLocation(tod)
	if got.Lat != wantMid.Lat || got.Lng != wantMid.Lng {
		t.Fatalf("BusiestLocation = %+v, reference scan says %+v (seg %d, %d days)",
			got, wantMid, bestSeg, bestN)
	}
}
