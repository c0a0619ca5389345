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

	"streach"
)

var (
	shardedOnce sync.Once
	shardedSys  *streach.System
	shardedErr  error
)

// shardedSystem builds a dedicated 4-shard system for the chaos serving
// tests (the shared fixture stays unsharded and uninjected).
func shardedSystem(t *testing.T) *streach.System {
	t.Helper()
	base := system(t)
	shardedOnce.Do(func() {
		idx := streach.DefaultIndexConfig()
		idx.PlanCache = -1
		if shardedSys, shardedErr = streach.NewSystemFromData(base.Network(), base.Dataset(), idx); shardedErr == nil {
			shardedErr = shardedSys.Shard(4)
		}
	})
	if shardedErr != nil {
		t.Fatal(shardedErr)
	}
	return shardedSys
}

func clearFaults(t *testing.T, sys *streach.System) {
	t.Helper()
	for sh := 0; sh < sys.Shards(); sh++ {
		if err := sys.InjectShardFault(sh, streach.ShardFaultNone); err != nil {
			t.Fatal(err)
		}
	}
}

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

// TestServeChaosDegraded pins the serving half of the chaos acceptance
// criterion: with 1 of 4 shards fault-injected, the same query answers
// 200 + "degraded": true under ?partial=true and a typed 5xx without
// it, and /healthz reports the degraded shard.
func TestServeChaosDegraded(t *testing.T) {
	sys := shardedSystem(t)
	defer clearFaults(t, sys)
	ts := httptest.NewServer(New(sys, Config{}).Handler())
	defer ts.Close()

	// Healthy first: 200, no degradation.
	out := getJSON(t, ts.URL+reachPath, http.StatusOK)
	if out["degraded"] != nil {
		t.Fatalf("healthy answer reports degradation: %v", out["degraded"])
	}

	if err := sys.InjectShardFault(1, streach.ShardFaultError); err != nil {
		t.Fatal(err)
	}

	// Default mode: typed shard failure, 502.
	out = getJSON(t, ts.URL+reachPath, http.StatusBadGateway)
	if out["code"] != "shard_failure" {
		t.Fatalf("fail-fast error = %v, want code shard_failure", out)
	}

	// Partial mode: 200 with degraded metadata.
	out = getJSON(t, ts.URL+reachPath+"&partial=true", http.StatusOK)
	if out["degraded"] != true {
		t.Fatalf("partial answer not degraded: %v", out)
	}
	missing, _ := out["missing_shards"].([]any)
	if len(missing) != 1 || missing[0].(float64) != 1 {
		t.Fatalf("missing_shards = %v, want [1]", out["missing_shards"])
	}
	cov, _ := out["coverage"].(float64)
	if cov <= 0 || cov >= 1 {
		t.Fatalf("coverage = %v, want in (0, 1)", out["coverage"])
	}
	if segs, _ := out["segments"].([]any); len(segs) == 0 {
		t.Fatalf("degraded answer is empty: %v", out)
	}

	// The probe shows the injected shard.
	hz := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if hz["status"] != "degraded" || hz["degraded"] != true {
		t.Fatalf("healthz = %v, want degraded", hz)
	}
	states, _ := hz["shard_health"].([]any)
	if len(states) != 4 {
		t.Fatalf("shard_health = %v", hz["shard_health"])
	}
	s1 := states[1].(map[string]any)
	if s1["fault"] != "error" || s1["degraded"] != true {
		t.Fatalf("shard 1 health = %v", s1)
	}

	// Hang + per-query shard budget is out of HTTP reach, but the hang
	// fault bounded by the server's request deadline still answers typed.
	if err := sys.InjectShardFault(1, streach.ShardFaultHang); err != nil {
		t.Fatal(err)
	}
	out = getJSON(t, ts.URL+reachPath+"&timeout=100ms", http.StatusGatewayTimeout)
	if out["code"] != "timeout" {
		t.Fatalf("hang error = %v, want code timeout", out)
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
