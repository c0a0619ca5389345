package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"streach"
)

var (
	sysOnce sync.Once
	testSys *streach.System
	sysErr  error
)

// system builds one small world shared by all server tests and the
// fuzz target.
func system(t testing.TB) *streach.System {
	t.Helper()
	sysOnce.Do(func() {
		testSys, sysErr = streach.NewSystem(streach.CityConfig{
			OriginLat: 22.50, OriginLng: 114.00,
			Rows: 8, Cols: 8,
			SpacingMeters:   900,
			LocalFraction:   0.4,
			ResegmentMeters: 450,
			Seed:            61,
		}, streach.FleetConfig{Taxis: 80, Days: 6, Seed: 62}, streach.DefaultIndexConfig())
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return testSys
}

func server(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	srv := New(system(t), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	ts := server(t, Config{})
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Fatalf("healthz = %v", out)
	}
	if out["segments"].(float64) <= 0 {
		t.Fatalf("healthz should report the network size: %v", out)
	}
}

func TestReachEndToEnd(t *testing.T) {
	ts := server(t, Config{})
	// No lat/lng: the server picks the busiest segment, so the smoke
	// query needs no world knowledge.
	out := getJSON(t, ts.URL+"/v1/reach?start=11h&dur=10m&prob=0.2", http.StatusOK)
	segs, ok := out["segments"].([]any)
	if !ok || len(segs) == 0 {
		t.Fatalf("reach returned no segments: %v", out)
	}
	metrics, ok := out["metrics"].(map[string]any)
	if !ok || metrics["evaluated"].(float64) <= 0 {
		t.Fatalf("reach metrics missing: %v", out)
	}

	// The same query through the exhaustive baseline must answer too.
	es := getJSON(t, ts.URL+"/v1/reach?start=11h&dur=10m&prob=0.2&alg=es", http.StatusOK)
	if len(es["segments"].([]any)) == 0 {
		t.Fatal("exhaustive reach returned no segments")
	}
}

func TestReachPostMulti(t *testing.T) {
	ts := server(t, Config{})
	sys := system(t)
	loc := sys.BusiestLocation(11 * time.Hour)
	body := fmt.Sprintf(`{
		"locations": [
			{"Lat": %f, "Lng": %f},
			{"Lat": %f, "Lng": %f}
		],
		"start": "11h", "dur": "10m", "prob": 0.2
	}`, loc.Lat, loc.Lng, loc.Lat+0.01, loc.Lng+0.01)
	resp, err := http.Post(ts.URL+"/v1/reach", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST multi = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out["segments"].([]any)) == 0 {
		t.Fatal("multi reach returned no segments")
	}
}

func TestGeoJSONNegotiation(t *testing.T) {
	ts := server(t, Config{})
	for _, tc := range []struct {
		name, url, accept string
	}{
		{"format-param", ts.URL + "/v1/reach?format=geojson", ""},
		{"accept-header", ts.URL + "/v1/reach", "application/geo+json"},
	} {
		req, _ := http.NewRequest(http.MethodGet, tc.url, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var fc struct {
			Type     string `json:"type"`
			Features []any  `json:"features"`
		}
		err = json.NewDecoder(resp.Body).Decode(&fc)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/geo+json" {
			t.Fatalf("%s: Content-Type = %q", tc.name, ct)
		}
		if fc.Type != "FeatureCollection" || len(fc.Features) == 0 {
			t.Fatalf("%s: not a FeatureCollection with features", tc.name)
		}
	}
}

func TestRouteEndToEnd(t *testing.T) {
	ts := server(t, Config{})
	sys := system(t)
	from := sys.BusiestLocation(8 * time.Hour)
	to := streach.Location{Lat: from.Lat + 0.02, Lng: from.Lng + 0.02}
	url := fmt.Sprintf("%s/v1/route?from_lat=%f&from_lng=%f&to_lat=%f&to_lng=%f&depart=8h",
		ts.URL, from.Lat, from.Lng, to.Lat, to.Lng)
	out := getJSON(t, url, http.StatusOK)
	if len(out["segments"].([]any)) == 0 {
		t.Fatalf("route returned no path: %v", out)
	}
	if out["travel_time_ms"].(float64) <= 0 {
		t.Fatalf("route has no travel time: %v", out)
	}
	// Free-flow must answer the same pair.
	ff := getJSON(t, url+"&alg=freeflow", http.StatusOK)
	if len(ff["segments"].([]any)) == 0 {
		t.Fatal("free-flow route returned no path")
	}
}

// TestDeadlinePropagation drives a query whose 1 ns deadline expires
// before the first checkpoint: the server must answer 504, proving the
// HTTP deadline reaches the engine's context rather than being decorative.
func TestDeadlinePropagation(t *testing.T) {
	ts := server(t, Config{})
	out := getJSON(t, ts.URL+"/v1/reach?start=11h&dur=10m&prob=0.2&timeout=1ns", http.StatusGatewayTimeout)
	if !strings.Contains(out["error"].(string), "deadline") {
		t.Fatalf("want a deadline error, got %v", out)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	ts := server(t, Config{})
	getJSON(t, ts.URL+"/v1/reach?start=11h&dur=5m&prob=0.2", http.StatusOK)
	out := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	if out["requests_total"].(float64) < 1 {
		t.Fatalf("metrics should count requests: %v", out)
	}
	if out["segments_evaluated"].(float64) <= 0 {
		t.Fatalf("metrics should accumulate evaluated segments: %v", out)
	}
}

func TestBadRequests(t *testing.T) {
	ts := server(t, Config{})
	for _, url := range []string{
		"/v1/reach?lat=22.5",                // lng missing
		"/v1/reach?start=noon",              // unparsable duration
		"/v1/reach?timeout=-1s",             // non-positive timeout
		"/v1/reach?alg=quantum",             // unknown algorithm
		"/v1/reach?alg=freeflow",            // algorithm/kind mismatch
		"/v1/reach?alg=seq&reverse=1",       // sequential has no reverse
		"/v1/route?from_lat=1&from_lng=1",   // destination missing
		"/v1/reach?prob=2&lat=22.5&lng=114", // prob out of range
		"/v1/route?from_lat=22.5&from_lng=114&to_lat=22.51&to_lng=114.01&depart=25h", // departs after the day
		"/v1/route?from_lat=22.5&from_lng=114&to_lat=22.51&to_lng=114.01&depart=-1m", // departs before it
	} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 400/404", url, resp.StatusCode)
		}
	}
}

// TestReachRejectsNaNAndOverflow: a NaN or explicit zero threshold and
// a window whose end overflows a Duration are typed 400s, not answers;
// an absent threshold answers at 0.2.
func TestReachRejectsNaNAndOverflow(t *testing.T) {
	ts := server(t, Config{})
	for _, q := range []string{"prob=NaN", "prob=0", "start=11h&dur=2562047h"} {
		if out := getJSON(t, ts.URL+"/v1/reach?"+q, http.StatusBadRequest); out["code"] != "invalid_request" {
			t.Fatalf("%s: body %v, want code invalid_request", q, out)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/reach", "application/json", strings.NewReader(`{"prob":0}`))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || out["code"] != "invalid_request" {
		t.Fatalf(`POST {"prob":0}: status %d, body %v (%v), want 400 invalid_request`, resp.StatusCode, out, err)
	}
	absent := getJSON(t, ts.URL+"/v1/reach?start=11h&dur=10m", http.StatusOK)
	at02 := getJSON(t, ts.URL+"/v1/reach?start=11h&dur=10m&prob=0.2", http.StatusOK)
	if !reflect.DeepEqual(absent["segments"], at02["segments"]) || len(at02["segments"].([]any)) == 0 {
		t.Fatalf("an absent prob answered %d segments, prob=0.2 %d", len(absent["segments"].([]any)), len(at02["segments"].([]any)))
	}
}

// TestNoLocationScansOnlyWhenAdmitted: a request without a location
// asks for the busiest segment at its start, which reads that slot's
// time lists from the ST-Index. Only a request that passed its parameter
// checks, its client's quota and admission may start that read: a shed
// request leaves the buffer pool's counters as they were. The opened
// system's dataset.bin is removed, which no request may notice.
func TestNoLocationScansOnlyWhenAdmitted(t *testing.T) {
	built, err := streach.NewSystem(streach.CityConfig{
		OriginLat: 22.50, OriginLng: 114.00,
		Rows: 4, Cols: 4,
		SpacingMeters: 900,
		Seed:          71,
	}, streach.FleetConfig{Taxis: 20, Days: 3, Seed: 72}, streach.DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	built.Close()
	sys, err := streach.OpenSystem(dir, streach.DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := os.Remove(filepath.Join(dir, "dataset.bin")); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	pool := sys.Engine().STIndex().Pool()
	before := pool.Stats()
	read := func() bool { return pool.Stats() != before }

	// One request per client per two seconds, one deep.
	h := New(sys, Config{ClientRPS: 0.5}).Handler()
	get := func(client, query string) int {
		req := httptest.NewRequest(http.MethodGet, "/v1/reach?"+query, nil)
		req.Header.Set("X-API-Key", client)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := get("a", "start=25h&dur=10m"); code != http.StatusBadRequest || read() {
		t.Errorf("start=25h: status %d, read the index %v; want 400 and no read", code, read())
	}
	mid := sys.Network().Segment(0).Midpoint()
	at := fmt.Sprintf("start=11h&dur=10m&lat=%g&lng=%g", mid.Lat, mid.Lng)
	if code := get("c", at); code != http.StatusOK {
		t.Fatalf("located request: status %d", code)
	}
	before = pool.Stats()
	if code := get("c", "start=11h&dur=10m"); code != http.StatusTooManyRequests || read() {
		t.Errorf("over quota: status %d, read the index %v; want 429 and no read", code, read())
	}
	// The check sees a read: an admitted request makes one.
	if code := get("b", "start=11h&dur=10m"); code != http.StatusOK || !read() {
		t.Fatalf("admitted no-location request: status %d, read the index %v; want 200 and a read", code, read())
	}
	if logged.Len() != 0 {
		t.Fatalf("requests logged:\n%s", logged.String())
	}
}

// TestAdmissionControl: with every admission slot held, query endpoints
// answer 429 with a Retry-After hint; releasing a slot admits again.
// The semaphore is filled directly so the test is deterministic.
func TestAdmissionControl(t *testing.T) {
	srv := New(system(t), Config{MaxInFlight: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if !srv.admit() || !srv.admit() {
		t.Fatal("could not fill the admission semaphore")
	}
	resp, err := http.Get(ts.URL + "/v1/reach?start=11h&dur=5m&prob=0.2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 is missing the Retry-After header")
	}
	// Health and metrics stay reachable under saturation.
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	getJSON(t, ts.URL+"/metrics", http.StatusOK)

	srv.release()
	getJSON(t, ts.URL+"/v1/reach?start=11h&dur=5m&prob=0.2", http.StatusOK)
	srv.release()

	out := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	if out["admission_rejected_total"].(float64) < 1 {
		t.Fatalf("rejection not counted: %v", out)
	}
}

// TestCoalescedEndToEnd: concurrent identical HTTP queries all answer
// correctly (whether or not they overlapped enough to wait on one plan
// build), and /metrics' coalesced_total is the plan store's count.
func TestCoalescedEndToEnd(t *testing.T) {
	ts := server(t, Config{})
	url := ts.URL + "/v1/reach?start=11h&dur=10m&prob=0.2"
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := getJSON(t, ts.URL+"/metrics", http.StatusOK)["coalesced_total"]
	if want := system(t).SharingStats().QueriesCoalesced; got != float64(want) {
		t.Fatalf("/metrics coalesced_total = %v, SharingStats says %d", got, want)
	}
}

// TestPrometheusMetrics: after a query, the Prometheus rendering exposes
// the per-endpoint latency histogram, the plan-sharing counters, and the
// cumulative counters, in text exposition format.
func TestPrometheusMetrics(t *testing.T) {
	ts := server(t, Config{})
	getJSON(t, ts.URL+"/v1/reach?start=11h&dur=5m&prob=0.2", http.StatusOK)

	resp, err := http.Get(ts.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := new(strings.Builder)
	if _, err := io.Copy(body, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{
		`streach_request_duration_seconds_bucket{endpoint="reach",le="+Inf"}`,
		`streach_request_duration_seconds_count{endpoint="reach"}`,
		"streach_plan_cache_hits_total",
		"streach_requests_total",
		"# TYPE streach_request_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
	// The reach histogram must have observed at least one request.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `streach_request_duration_seconds_count{endpoint="reach"}`) {
			var n int
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil || n < 1 {
				t.Fatalf("reach histogram count line %q", line)
			}
		}
	}
}

// TestExplicitOriginIsNotBusiestFallback: lat=0&lng=0 is a real
// coordinate (snapped to the nearest — south-west corner — segment),
// not the "no location" busiest-segment default, so the two answers
// must differ.
func TestExplicitOriginIsNotBusiestFallback(t *testing.T) {
	ts := server(t, Config{})
	zero := getJSON(t, ts.URL+"/v1/reach?lat=0&lng=0", http.StatusOK)
	busy := getJSON(t, ts.URL+"/v1/reach", http.StatusOK)
	if fmt.Sprint(zero["segments"]) == fmt.Sprint(busy["segments"]) {
		t.Fatal("explicit (0,0) answered the busiest-segment fallback query")
	}
}

// TestAlgorithmParamAliases: GET accepts both ?alg= and ?algorithm=
// (the JSON body's field name).
func TestAlgorithmParamAliases(t *testing.T) {
	ts := server(t, Config{})
	a := getJSON(t, ts.URL+"/v1/reach?algorithm=exhaustive", http.StatusOK)
	b := getJSON(t, ts.URL+"/v1/reach?alg=exhaustive", http.StatusOK)
	if len(a["segments"].([]any)) != len(b["segments"].([]any)) {
		t.Fatal("alg= and algorithm= dispatched differently")
	}
}

// TestShardedServing: a server over a sharded system answers the same
// bytes as one over an unsharded system, reports its shard count on
// /healthz, and exposes per-shard metrics on /metrics/prometheus.
func TestShardedServing(t *testing.T) {
	base := system(t)
	sharded, err := streach.NewSystemFromData(base.Network(), base.Dataset(), streach.DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.Shard(2); err != nil {
		t.Fatal(err)
	}
	ts := server(t, Config{})
	tsSharded := httptest.NewServer(New(sharded, Config{}).Handler())
	t.Cleanup(tsSharded.Close)

	hz := getJSON(t, tsSharded.URL+"/healthz", http.StatusOK)
	if got := hz["shards"].(float64); got != 2 {
		t.Fatalf("healthz shards = %v, want 2", got)
	}
	if hz := getJSON(t, ts.URL+"/healthz", http.StatusOK); hz["shards"].(float64) != 1 {
		t.Fatalf("unsharded healthz shards = %v, want 1", hz["shards"])
	}

	const q = "/v1/reach?start=11h&dur=10m&prob=0.2&format=geojson"
	fetch := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
		}
		return string(body)
	}
	if got, want := fetch(tsSharded.URL+q), fetch(ts.URL+q); got != want {
		t.Fatal("sharded GeoJSON differs from unsharded")
	}

	resp, err := http.Get(tsSharded.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"streach_shards 2",
		`streach_shard_segments{shard="0"}`,
		`streach_shard_segments{shard="1"}`,
		`streach_shard_candidates_verified_total{shard="0"}`,
		"streach_plan_cache_",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q", want)
		}
	}
	// The reach query's scatter work must land in the per-shard counters.
	var verified float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "streach_shard_candidates_verified_total{") {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err == nil {
				verified += v
			}
		}
	}
	if verified == 0 {
		t.Fatal("no candidates attributed to any shard")
	}
}

// TestStatusOf pins the status of every error kind a handler can meet:
// the typed codes, the bare context sentinels, the snap miss, and an
// untyped failure whose message happens to read like a bad request.
func TestStatusOf(t *testing.T) {
	typed := func(c streach.ErrorCode, msg string) error {
		return &streach.Error{Code: c, Op: "reach", Err: errors.New(msg)}
	}
	for _, c := range []struct {
		name string
		err  error
		want int
	}{
		{"unknown", typed(streach.CodeUnknown, "x"), http.StatusInternalServerError},
		{"invalid", typed(streach.InvalidRequest, "core: Prob must be in (0, 1], got 2"), http.StatusBadRequest},
		{"timeout", typed(streach.Timeout, "x"), http.StatusGatewayTimeout},
		{"overloaded", typed(streach.Overloaded, "x"), http.StatusTooManyRequests},
		{"corrupt", typed(streach.CorruptData, "x"), http.StatusInternalServerError},
		{"internal", typed(streach.Internal, "x"), http.StatusInternalServerError},
		{"canceled", context.Canceled, 499},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"snap miss", typed(streach.InvalidRequest, "streach: no road near {Lat:0 Lng:0}"), http.StatusNotFound},
		{"untyped needs", fmt.Errorf("streach: persist compaction: %w",
			errors.New("storage: ReadPageInto needs exactly 4096 bytes, got 1")), http.StatusInternalServerError},
	} {
		if got := statusOf(c.err); got != c.want {
			t.Errorf("%s: statusOf(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}
