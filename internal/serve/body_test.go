package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"streach"
)

// postBody posts body to url and returns the status and the decoded
// reply.
func postBody(t *testing.T, url string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s = %d with an undecodable body: %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// padTo returns body grown to n bytes with spaces, inside the JSON
// object (before its closing brace) or after it.
func padTo(t *testing.T, body []byte, n int, inside bool) []byte {
	t.Helper()
	if len(body) > n {
		t.Fatalf("body of %d bytes is already past %d", len(body), n)
	}
	pad := bytes.Repeat([]byte(" "), n-len(body))
	if !inside {
		return append(append([]byte{}, body...), pad...)
	}
	end := bytes.LastIndexByte(body, '}')
	return append(append(append([]byte{}, body[:end]...), pad...), body[end:]...)
}

// tooLarge requires a typed 413 reply.
func tooLarge(t *testing.T, what string, status int, out map[string]any) {
	t.Helper()
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("%s: status %d, want 413 (%v)", what, status, out)
	}
	if out["code"] != streach.InvalidRequest.String() || out["request_id"] == "" || out["request_id"] == nil {
		t.Fatalf("%s: 413 body is not a typed error with a request ID: %v", what, out)
	}
}

// TestBodyCaps: /v1/ingest reads at most maxIngestBody bytes and POST
// /v1/reach at most maxReachBody. A body of exactly the cap is decoded —
// a full 65 536-update batch fits the ingest cap — and one byte more,
// inside the JSON value or after it, is a typed 413 that ingests nothing.
func TestBodyCaps(t *testing.T) {
	sys, err := streach.NewSystem(streach.CityConfig{
		OriginLat: 22.50, OriginLng: 114.00,
		Rows: 4, Cols: 4,
		SpacingMeters: 900,
		Seed:          81,
	}, streach.FleetConfig{Taxis: 10, Days: 2, Seed: 82}, streach.DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.StartIngest(streach.IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var batch strings.Builder
	batch.WriteString(`{"updates":[`)
	nSeg := sys.Network().NumSegments()
	for i := 0; i < maxIngestBatch; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, `{"taxi":%d,"day":%d,"seg":%d,"enter_ms":%d,"exit_ms":%d,"speed_mps":%g}`,
			i%10, i%2, i%nSeg, 3600000+i, 3600000+i+5000, 8.5)
	}
	batch.WriteString(`]}`)
	full := []byte(batch.String())

	status, out := postBody(t, ts.URL+"/v1/ingest", padTo(t, full, maxIngestBody, true))
	if status != http.StatusOK && status != http.StatusTooManyRequests || out["accepted"] == nil || out["accepted"].(float64) == 0 {
		t.Fatalf("a %d-update batch of exactly the cap was not taken: status %d, %v", maxIngestBatch, status, out)
	}
	if err := sys.FlushIngest(context.Background()); err != nil {
		t.Fatal(err)
	}
	accepted := sys.IngestStats().Accepted
	for _, inside := range []bool{true, false} {
		what := fmt.Sprintf("ingest body one byte over the cap (padding inside the value: %v)", inside)
		status, out := postBody(t, ts.URL+"/v1/ingest", padTo(t, full, maxIngestBody+1, inside))
		tooLarge(t, what, status, out)
		if got := sys.IngestStats().Accepted; got != accepted {
			t.Fatalf("%s: accepted %d updates", what, got-accepted)
		}
	}

	reach := []byte(`{"start":"11h","dur":"10m","prob":0.2,"algorithm":"exhaustive"}`)
	if status, out := postBody(t, ts.URL+"/v1/reach", padTo(t, reach, maxReachBody, true)); status != http.StatusOK {
		t.Fatalf("a reach body of exactly the cap: status %d, %v", status, out)
	}
	for _, inside := range []bool{true, false} {
		status, out := postBody(t, ts.URL+"/v1/reach", padTo(t, reach, maxReachBody+1, inside))
		tooLarge(t, fmt.Sprintf("reach body one byte over the cap (padding inside the value: %v)", inside), status, out)
	}
}
