package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"streach"
)

var (
	worldOnce sync.Once
	testWorld *World
	worldErr  error
)

func smallWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() {
		testWorld, worldErr = BuildWorld(SmallConfig())
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return testWorld
}

func TestWorldSystemsCached(t *testing.T) {
	w := smallWorld(t)
	a, err := w.System(300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.System(300)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("System(300) should be cached")
	}
	c, err := w.System(600)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different Δt must build a different system")
	}
}

func TestQueryLocationStable(t *testing.T) {
	w := smallWorld(t)
	a, err := w.QueryLocation()
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.QueryLocation()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("query location should be deterministic")
	}
}

func TestMultiQueryLocationsSpacing(t *testing.T) {
	w := smallWorld(t)
	locs, err := w.MultiQueryLocations(3, 11*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 3 {
		t.Fatalf("got %d locations", len(locs))
	}
	for i := 0; i < len(locs); i++ {
		for j := i + 1; j < len(locs); j++ {
			dLat := (locs[i].Lat - locs[j].Lat) * 111195
			dLng := (locs[i].Lng - locs[j].Lng) * 111195 * 0.92
			if dLat*dLat+dLng*dLng < 1500*1500*0.8 {
				t.Fatalf("locations %d and %d too close", i, j)
			}
		}
	}
	if _, err := w.MultiQueryLocations(0, 11*time.Hour); err == nil {
		t.Fatal("n=0 should error")
	}
}

func TestFig42SmallWorld(t *testing.T) {
	w := smallWorld(t)
	rows, err := Fig42(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Fig42 rows = %d", len(rows))
	}
	if rows[1].RoadKm < rows[0].RoadKm {
		t.Fatalf("L=10 region (%v km) should not be smaller than L=5 (%v km)", rows[1].RoadKm, rows[0].RoadKm)
	}
	var buf bytes.Buffer
	PrintFig42(&buf, rows)
	if !strings.Contains(buf.String(), "Fig 4.2") {
		t.Fatal("printer should label the figure")
	}
}

func TestFig47SmallWorldCoarseOnly(t *testing.T) {
	// Restrict to the coarse granularities to keep the test fast: the
	// shape assertion is that results exist for each Δt.
	w := smallWorld(t)
	loc, err := w.QueryLocation()
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []int{300, 600} {
		sys, err := w.System(dt)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sys.Do(context.Background(),
			streach.ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2))
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics.MaxRegion == 0 {
			t.Fatalf("Δt=%ds produced an empty max region", dt)
		}
	}
}

func TestFig49UnionProperty(t *testing.T) {
	w := smallWorld(t)
	res, err := Fig49(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnionSegments == 0 {
		t.Fatal("s-query union is empty")
	}
	cover := float64(res.CoveredByM) / float64(res.UnionSegments)
	if cover < 0.7 {
		t.Fatalf("m-query covers only %.0f%% of the s-query union", cover*100)
	}
	var buf bytes.Buffer
	PrintFig49(&buf, res)
	if !strings.Contains(buf.String(), "m-query region") {
		t.Fatal("printer output missing")
	}
}

func TestTable41And42Print(t *testing.T) {
	w := smallWorld(t)
	var buf bytes.Buffer
	if err := Table41(&buf, w); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Road segments", "Number of taxis", "days"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table 4.1 output missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	Table42(&buf)
	if !strings.Contains(buf.String(), "Δt") {
		t.Fatal("Table 4.2 output missing Δt row")
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{1500 * time.Millisecond, "1.50s"},
		{25 * time.Millisecond, "25.0ms"},
		{300 * time.Microsecond, "300µs"},
	}
	for _, c := range cases {
		if got := fmtDur(c.d); got != c.want {
			t.Fatalf("fmtDur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestFig43SmallWorld(t *testing.T) {
	w := smallWorld(t)
	sys, err := w.System(300)
	if err != nil {
		t.Fatal(err)
	}
	hits := sys.SharingStats().PlanCacheHits
	rows, err := Fig43(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Fig43 rows = %d, want 5", len(rows))
	}
	// Every timed Do is a whole execution: the figure compares the
	// algorithms, not the plan cache.
	if got := sys.SharingStats().PlanCacheHits; got != hits {
		t.Fatalf("Fig43 timed %d plan-cache hits", got-hits)
	}
	// Road length must be non-increasing in Prob.
	for i := 1; i < len(rows); i++ {
		if rows[i].RoadKm10 > rows[i-1].RoadKm10+1e-9 {
			t.Fatalf("road length rose with Prob: %v -> %v", rows[i-1].RoadKm10, rows[i].RoadKm10)
		}
	}
	var buf bytes.Buffer
	PrintFig43(&buf, rows)
	if !strings.Contains(buf.String(), "Fig 4.3") {
		t.Fatal("printer output missing")
	}
}

func TestFig44And46SmallWorld(t *testing.T) {
	w := smallWorld(t)
	rows44, err := Fig44(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows44) != 4 {
		t.Fatalf("Fig44 rows = %d", len(rows44))
	}
	for i := 1; i < len(rows44); i++ {
		if rows44[i].Segments > rows44[i-1].Segments {
			t.Fatalf("region grew with Prob at row %d", i)
		}
	}
	rows46, err := Fig46(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows46) != 4 {
		t.Fatalf("Fig46 rows = %d", len(rows46))
	}
	var buf bytes.Buffer
	PrintFig44(&buf, rows44)
	PrintFig46(&buf, rows46)
	if !strings.Contains(buf.String(), "Fig 4.4") || !strings.Contains(buf.String(), "Fig 4.6") {
		t.Fatal("printer output missing")
	}
}

func TestFig48bSmallWorld(t *testing.T) {
	w := smallWorld(t)
	rows, err := Fig48b(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Fig48b rows = %d", len(rows))
	}
	if rows[0].Locations != 1 || rows[1].Locations != 2 {
		t.Fatalf("location counts wrong: %+v", rows)
	}
	var buf bytes.Buffer
	PrintFig48b(&buf, rows)
	if !strings.Contains(buf.String(), "4.8b") {
		t.Fatal("printer output missing")
	}
}
