package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"
)

const reachPath = "/v1/reach?start=11h&dur=10m&prob=0.2"

// TestRequestIDGeneratedAndEchoed: every response carries X-Request-ID —
// generated when the client sent none (or sent garbage), echoed when the
// client's is plain — and error bodies carry the same ID plus the typed
// code.
func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	ts := server(t, Config{})
	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); !hexID.MatchString(rid) {
		t.Fatalf("generated request ID = %q, want 16 hex chars", rid)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-id-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); rid != "client-id-42" {
		t.Fatalf("client request ID not echoed: %q", rid)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "evil id with spaces and a very long tail that nobody should be allowed to log")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); !hexID.MatchString(rid) {
		t.Fatalf("unsafe client ID should be replaced, got %q", rid)
	}

	// Error bodies are attributable: request_id and typed code.
	out := getJSON(t, ts.URL+"/v1/reach?start=11h&dur=10m&prob=7", http.StatusBadRequest)
	if out["code"] != "invalid_request" {
		t.Fatalf("error code = %v, want invalid_request", out["code"])
	}
	if rid, _ := out["request_id"].(string); !hexID.MatchString(rid) {
		t.Fatalf("error body request_id = %v", out["request_id"])
	}
}

// TestPanicRecoveryMiddleware: a panicking handler becomes a typed 500,
// not a dead connection.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s := New(system(t), Config{})
	h := s.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	out := getJSON(t, ts.URL+"/boom", http.StatusInternalServerError)
	if out["code"] != "internal" {
		t.Fatalf("panic response = %v, want code internal", out)
	}
	if out["request_id"] == "" {
		t.Fatalf("panic response missing request_id: %v", out)
	}
}

// TestServeGoroutineHygiene: graceful shutdown, coalesced-query leader
// deadline expiry, and mid-query client cancellation all leave no
// goroutines behind (run under -race in CI).
func TestServeGoroutineHygiene(t *testing.T) {
	sys := system(t)
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	before := runtime.NumGoroutine()

	func() {
		srv := New(sys, Config{})
		ts := httptest.NewServer(srv.Handler())
		defer srv.Close()
		defer ts.Close()

		// Plain traffic.
		for i := 0; i < 3; i++ {
			resp, err := http.Get(ts.URL + reachPath)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}

		// Coalesced burst whose leader's deadline expires mid-query:
		// followers must not wait forever on a dead leader.
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(ts.URL + reachPath + "&timeout=2ms")
				if err == nil {
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()

		// Mid-query client cancellation.
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+reachPath, nil)
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(3 * time.Second)
	var now int
	for {
		runtime.GC()
		now = runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines grew %d -> %d after serve shutdown; stacks:\n%s", before, now, buf[:n])
}
