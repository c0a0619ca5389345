package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzReachRequest sends an arbitrary query string as a GET and
// arbitrary bytes as a POST body to /v1/reach through Handler. No input
// may panic or fail untyped: the status is one the API documents, and
// every error body is {error, code, request_id} with the request ID the
// response header carries.
func FuzzReachRequest(f *testing.F) {
	for _, seed := range []struct{ query, body string }{
		{"prob=NaN", `{"prob":0.2}`},
		{"start=11h&dur=2562047h", `{"start":"11h","dur":"2562047h"}`},
		{"lat=NaN&lng=NaN", `{"lat":1e308,"lng":-1e308}`},
		{"lat=Inf&lng=-Inf", `{"locations":[]}`},
		{"lat=1e308&lng=1e308&alg=es", ``},
		{"reverse=1&start=23h55m&dur=1h", `{"reverse":true,"locations":[{"Lat":22.5,"Lng":114},{"Lat":22.51,"Lng":114.01},{"Lat":22.52,"Lng":114.02}]}`},
		{"timeout=1ns", `{"locations":[{"Lat":22.5,"Lng":114}],"prob":1}`},
		{"prob=0", `{"prob":0}`},
	} {
		f.Add(seed.query, []byte(seed.body))
	}
	srv := New(system(f), Config{})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, query string, body []byte) {
		get, _ := http.NewRequest(http.MethodGet, "/v1/reach", nil)
		get.URL.RawQuery = query
		post, _ := http.NewRequest(http.MethodPost, "/v1/reach", bytes.NewReader(body))
		for _, req := range []*http.Request{get, post} {
			req.RemoteAddr = "192.0.2.1:1234"
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
				continue
			case http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests, http.StatusGatewayTimeout:
			default:
				t.Fatalf("%s %q: status %d: %s", req.Method, query, rec.Code, rec.Body)
			}
			var out struct {
				Error     *string `json:"error"`
				Code      *string `json:"code"`
				RequestID *string `json:"request_id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == nil || out.Code == nil || out.RequestID == nil {
				t.Fatalf("%s %q: status %d body is not {error, code, request_id} (%v): %s", req.Method, query, rec.Code, err, rec.Body)
			}
			if rid := rec.Header().Get("X-Request-ID"); *out.RequestID != rid {
				t.Fatalf("%s %q: body request_id %q, header %q", req.Method, query, *out.RequestID, rid)
			}
		}
	})
}
