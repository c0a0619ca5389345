package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"streach"
	"streach/internal/race"
)

// regionResponseOracle is the default JSON reply as it was built before
// appendRegionJSON — nested maps for encoding/json to reflect over —
// kept verbatim as the reference the append encoder must match.
func regionResponseOracle(region *streach.Region) map[string]any {
	m := region.Metrics
	resp := map[string]any{
		"segments":      region.SegmentIDs,
		"probabilities": region.Probabilities,
		"road_km":       region.RoadKm,
		"metrics": map[string]any{
			"elapsed_ms":    float64(m.Elapsed) / float64(time.Millisecond),
			"bound_ms":      float64(m.Bound) / float64(time.Millisecond),
			"verify_ms":     float64(m.Verify) / float64(time.Millisecond),
			"evaluated":     m.Evaluated,
			"page_reads":    m.PageReads,
			"page_hits":     m.PageHits,
			"max_region":    m.MaxRegion,
			"min_region":    m.MinRegion,
			"road_segments": m.RoadSegments,
		},
	}
	return resp
}

// oracleReply is the old writeJSON body: json.NewEncoder(w).Encode.
func oracleReply(t *testing.T, region *streach.Region) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(regionResponseOracle(region))
	return buf.String(), err
}

func TestAppendRegionJSONMatchesOracle(t *testing.T) {
	sys := system(t)
	real, err := sys.Do(context.Background(), streach.ReachRequest(sys.BusiestLocation(11*time.Hour), 11*time.Hour, 10*time.Minute, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if len(real.SegmentIDs) == 0 {
		t.Fatal("fixture query answers nothing")
	}
	metrics := streach.Metrics{
		Elapsed: 1234567 * time.Nanosecond, Bound: 999 * time.Nanosecond, Verify: 3 * time.Hour,
		Evaluated: 41, PageReads: 1 << 40, PageHits: 7, MaxRegion: 900, MinRegion: 12, RoadSegments: 1914,
	}
	cases := map[string]*streach.Region{
		"a real answer": real,
		"zero value":    {},
		"empty non-nil slices": {
			SegmentIDs: []int32{}, Probabilities: []float32{},
		},
		"unverified -1 probabilities": {
			SegmentIDs: []int32{0, 7, 1913}, Probabilities: []float32{-1, 0.5, -1}, RoadKm: 1.25, Metrics: metrics,
		},
		"float32 edge values": {
			SegmentIDs: []int32{1, 2, 3, 4, 5, 6, 7, 8, 9},
			Probabilities: []float32{0, 1, 1.0 / 3, 0.1, 1e-6, 9.9e-7, 1e-7, 1e21, math.SmallestNonzeroFloat32,
				math.MaxFloat32, float32(math.Copysign(0, -1)), 0.16666667, 16777216},
			RoadKm:  1e21,
			Metrics: streach.Metrics{Elapsed: 1, Bound: 0, Verify: -5},
		},
		"tiny road km": {RoadKm: 1.5e-9},
	}
	for name, region := range cases {
		want, err := oracleReply(t, region)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		got, err := appendRegionJSON([]byte("prefix"), region)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(got) != "prefix"+want {
			t.Fatalf("%s: appendRegionJSON differs from the encoding/json oracle\n got %s\nwant %s", name, got[len("prefix"):], want)
		}
	}

	// What encoding/json refuses, the append encoder refuses.
	for name, region := range map[string]*streach.Region{
		"NaN probability": {SegmentIDs: []int32{1}, Probabilities: []float32{float32(math.NaN())}},
		"Inf road km":     {RoadKm: math.Inf(1)},
	} {
		if _, err := oracleReply(t, region); err == nil {
			t.Fatalf("%s: the oracle encodes it", name)
		}
		if got, err := appendRegionJSON([]byte("prefix"), region); err == nil || string(got) != "prefix" {
			t.Fatalf("%s: appendRegionJSON returned %q, err %v; want the buffer back and an error", name, got, err)
		}
	}
}

// TestReachReplyBytes drives both formats through the real handler and
// compares the wire bytes with the oracles: the reply path's pooled
// buffer, Content-Length and single Write must not change a byte.
func TestReachReplyBytes(t *testing.T) {
	sys := system(t)
	ts := server(t, Config{})
	fetch := func(url string) (*http.Response, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
		}
		return resp, string(body)
	}
	region, err := sys.Do(context.Background(), streach.ReachRequest(sys.BusiestLocation(11*time.Hour), 11*time.Hour, 10*time.Minute, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // the pooled buffer is reused from the second request on
		resp, body := fetch(ts.URL + "/v1/reach?start=11h&dur=10m&prob=0.2&format=geojson")
		want, err := region.GeoJSON()
		if err != nil {
			t.Fatal(err)
		}
		if body != want {
			t.Fatalf("GeoJSON reply %d differs from Region.GeoJSON (%d vs %d bytes)", i, len(body), len(want))
		}
		if got := resp.Header.Get("Content-Type"); got != "application/geo+json" {
			t.Fatalf("Content-Type = %q", got)
		}
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(want)) {
			t.Fatalf("Content-Length = %q, body has %d bytes", got, len(want))
		}

		resp, body = fetch(ts.URL + "/v1/reach?start=11h&dur=10m&prob=0.2")
		var parsed struct {
			Segments      []int32   `json:"segments"`
			Probabilities []float32 `json:"probabilities"`
		}
		if err := json.Unmarshal([]byte(body), &parsed); err != nil {
			t.Fatalf("JSON reply %d does not parse: %v", i, err)
		}
		if len(parsed.Segments) != len(region.SegmentIDs) || len(parsed.Probabilities) != len(region.SegmentIDs) {
			t.Fatalf("JSON reply %d has %d segments, want %d", i, len(parsed.Segments), len(region.SegmentIDs))
		}
		if body[len(body)-1] != '\n' || resp.Header.Get("Content-Type") != "application/json" ||
			resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Fatalf("JSON reply %d: headers %v, last byte %q", i, resp.Header, body[len(body)-1])
		}
	}
}

// TestReachEmptyRegionIsValidGeoJSON: nobody drives from the network's
// corner at 3 a.m. on every day, so the exhaustive answer at prob=1 is
// empty — and must render "features":[], what RFC 7946 asks for and
// L.geoJSON accepts, where the reflective encoder wrote null.
func TestReachEmptyRegionIsValidGeoJSON(t *testing.T) {
	ts := server(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/reach?start=3h&dur=5m&prob=1&alg=es&format=geojson&lat=22.5001&lng=114.0001")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, body)
	}
	if want := `{"type":"FeatureCollection","features":[]}`; string(body) != want {
		t.Fatalf("empty region rendered as %.200s, want %s", body, want)
	}
}

// discardWriter is the cheapest possible ResponseWriter, so an
// allocation count is the handler's and not the recorder's.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestPlanHitReplyAllocations pins the allocations of one plan-hit
// request through the whole handler stack (request ID, deadline context,
// System.Do's plan-store hit, the reply). Before the append
// encoders a 40-segment GeoJSON reply alone made ~800; what is left is a
// small constant that does not grow with the region.
func TestPlanHitReplyAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sys := system(t)
	srv := New(sys, Config{})
	defer srv.Close()
	h := srv.Handler()
	loc := sys.BusiestLocation(11 * time.Hour)
	base := "/v1/reach?start=11h&dur=10m&prob=0.2&lat=" + strconv.FormatFloat(loc.Lat, 'g', -1, 64) +
		"&lng=" + strconv.FormatFloat(loc.Lng, 'g', -1, 64)
	perFormat := map[string]float64{}
	for name, url := range map[string]string{"json": base, "geojson": base + "&format=geojson"} {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		w := &discardWriter{h: http.Header{}}
		serveOnce := func() {
			w.status, w.n = 0, 0
			h.ServeHTTP(w, req)
			if w.status != 0 && w.status != http.StatusOK || w.n == 0 {
				t.Fatalf("%s: status %d, %d bytes", name, w.status, w.n)
			}
		}
		serveOnce() // builds and parks the plan
		hits0 := sys.SharingStats().PlanCacheHits
		allocs := testing.AllocsPerRun(200, serveOnce)
		if hits := sys.SharingStats().PlanCacheHits - hits0; hits < 200 {
			t.Fatalf("%s: %d plan hits over 201 requests — not measuring the plan-hit path", name, hits)
		}
		t.Logf("%s: %.1f allocations per plan-hit request, %d reply bytes", name, allocs, w.n)
		// 54 (JSON) and 55 (GeoJSON, one more URL parameter) with
		// go1.24.0; the headroom is for net/url and context differing
		// between Go releases.
		const maxPlanHitAllocs = 68
		if allocs > maxPlanHitAllocs {
			t.Fatalf("%s: %.1f allocations per plan-hit request, pinned at %d", name, allocs, maxPlanHitAllocs)
		}
		perFormat[name] = allocs
	}
	// Eleven times the reply bytes, the same allocations: nothing on the
	// reply path allocates per segment.
	if perFormat["geojson"] > perFormat["json"]+2 {
		t.Fatalf("GeoJSON replies allocate %.1f, JSON replies %.1f: the encoder allocates per feature",
			perFormat["geojson"], perFormat["json"])
	}
}

// TestAnswerStartsNoWarm: the server builds no Con-Index row after it
// has answered. A reach whose next window is cold leaves that window
// cold, also once Close has returned: rows are built by the queries
// that miss them and by the operator's WarmCtx, not behind an answer.
// Work started behind the answer would build its first rows within a
// few milliseconds; the test gives it 50.
func TestAnswerStartsNoWarm(t *testing.T) {
	sys := system(t)
	srv := New(sys, Config{})
	// 15:00 is a window no other test of this package asks about.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/reach?start=15h&dur=10m&prob=0.2", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reach answered %d: %s", rec.Code, rec.Body)
	}
	con := sys.Engine().ConIndex()
	answered := con.Stats().Materialised
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	if got := con.Stats().Materialised; got != answered {
		t.Fatalf("%d Con-Index rows were built after the answer", got-answered)
	}
}
