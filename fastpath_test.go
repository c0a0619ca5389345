package streach

import (
	"context"
	"testing"
	"time"

	"streach/internal/roadnet"
	"streach/internal/traj"
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

// busiestRef is BusiestLocation's definition over raw visits, in nested
// maps: the segment seen on the most distinct days in the slot
// containing tod — a visit counts when it enters before the slot ends
// and leaves at or after it begins — with ties to the lowest ID, and
// segment 0 when the slot has no traffic.
func busiestRef(ds *traj.Dataset, slotSec int, tod time.Duration) (seg roadnet.SegmentID, days int) {
	slot := int64(tod / (time.Duration(slotSec) * time.Second))
	lo, hi := slot*int64(slotSec)*1000, (slot+1)*int64(slotSec)*1000
	seen := map[roadnet.SegmentID]map[traj.Day]bool{}
	for _, mt := range ds.Matched {
		for _, v := range mt.Visits {
			if int64(v.EnterMs) < hi && int64(v.ExitMs) >= lo {
				if seen[v.Segment] == nil {
					seen[v.Segment] = map[traj.Day]bool{}
				}
				seen[v.Segment][mt.Day] = true
			}
		}
	}
	for s, d := range seen {
		if len(d) > days || (len(d) == days && s < seg) {
			seg, days = s, len(d)
		}
	}
	return seg, days
}

// checkBusiest compares s.BusiestLocation(tod) with busiestRef over ds
// and returns the reference's segment and day count.
func checkBusiest(t *testing.T, stage string, s *System, ds *traj.Dataset, tod time.Duration) (roadnet.SegmentID, int) {
	t.Helper()
	seg, days := busiestRef(ds, s.Stats().SlotSeconds, tod)
	p := s.Network().Segment(seg).Midpoint()
	if got := s.BusiestLocation(tod); got != (Location{Lat: p.Lat, Lng: p.Lng}) {
		t.Fatalf("%s: BusiestLocation(%v) = %+v, the raw visits say segment %d (%d days) at %+v", stage, tod, got, seg, days, p)
	}
	return seg, days
}

// TestBusiestLocationMatchesNestedMapScan pins BusiestLocation, read from
// the ST-Index, to busiestRef over the raw visits: at a slot boundary,
// mid-slot and at 23:59, on a built and an opened system, and over base
// ∪ live updates once they are flushed and again once they are
// compacted — a tie made by live traffic going to the lower ID, and a
// blanket update moving the pick.
func TestBusiestLocationMatchesNestedMapScan(t *testing.T) {
	built := smallSystem(t)
	opened := variant(t, vcfg{planCache: -1, saved: true})
	ds := built.Dataset()
	tods := []time.Duration{11 * time.Hour, 8*time.Hour + 7*time.Minute + 30*time.Second, 23*time.Hour + 59*time.Minute}
	for _, tod := range tods {
		if _, days := checkBusiest(t, "built", built, ds, tod); days == 0 && tod < 23*time.Hour {
			t.Fatalf("no traffic at %v: the check compares nothing", tod)
		}
		checkBusiest(t, "opened", opened, ds, tod)
	}

	// Live traffic: at a slot where no segment is busy on every day, two
	// segments are made busy on every day, so they tie above the rest;
	// at 11:00 every segment is.
	live := variant(t, vcfg{planCache: -1})
	if err := live.StartIngest(IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	n, slotSec := live.Network().NumSegments(), live.Stats().SlotSeconds
	blanketAt, tieAt := 11*time.Hour, time.Duration(-1)
	for h := time.Duration(0); h < 24; h++ {
		if _, days := busiestRef(ds, slotSec, h*time.Hour); days > 0 && days < ds.Days && h*time.Hour != blanketAt {
			tieAt = h * time.Hour
			break
		}
	}
	if tieAt < 0 {
		t.Fatal("no hour with traffic on some but not all days")
	}
	basePick, _ := busiestRef(ds, slotSec, blanketAt)
	if basePick == 0 {
		t.Fatal("the blanket update cannot move a pick that is already segment 0")
	}
	updates := blanketUpdates(live, []int{int(blanketAt / (300 * time.Second))})
	low, high := n/2, n-1
	for day := 0; day < ds.Days; day++ {
		for _, seg := range []int{high, low} {
			ms := int32(tieAt/time.Millisecond) + 1000
			updates = append(updates, IngestUpdate{TaxiID: int32(2000 + day), Day: day, SegmentID: int32(seg),
				EnterMs: ms, ExitMs: ms + 20_000, SpeedMps: 8})
		}
	}
	if err := live.Ingest(context.Background(), updates); err != nil {
		t.Fatal(err)
	}
	union := unionDataset(ds, updates)
	for _, stage := range []string{"flushed", "compacted"} {
		var err error
		if stage == "flushed" {
			err = live.FlushIngest(context.Background())
		} else {
			_, err = live.CompactIngestN(context.Background(), 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, tod := range tods {
			checkBusiest(t, stage, live, union, tod)
		}
		if seg, _ := checkBusiest(t, stage, live, union, tieAt); seg != roadnet.SegmentID(low) {
			t.Fatalf("%s: the tie at %v went to segment %d, want the lower %d", stage, tieAt, seg, low)
		}
		if seg, _ := checkBusiest(t, stage, live, union, blanketAt); seg != 0 {
			t.Fatalf("%s: after the blanket update the pick at %v is segment %d, want 0", stage, blanketAt, seg)
		}
	}
}
