package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"streach"
)

// --- AIMD limiter ---

func TestLimiterDefaults(t *testing.T) {
	l := newLimiter(64)
	if l.min != 16 || l.max != 64 || l.limit != 64 {
		t.Fatalf("limiter = min %v max %v limit %v, want 16/64/64", l.min, l.max, l.limit)
	}
	// The floor is at least 1.
	if l := newLimiter(2); l.min != 1 {
		t.Fatalf("min = %v, want 1", l.min)
	}
}

// TestLimiterAIMD: deadline failures multiply the limit down (rate
// limited to one decrease per window), comfortable completions add a
// fractional slot back, and the floor holds.
func TestLimiterAIMD(t *testing.T) {
	l := newLimiter(10)
	deadline := time.Second

	ok, _ := l.admit()
	if !ok {
		t.Fatal("fresh limiter rejected")
	}
	l.release(deadline, deadline, true) // deadline hit: congestion
	if lim, _ := l.snapshot(); lim != 7 {
		t.Fatalf("limit after decrease = %v, want 7", lim)
	}

	// A second congestion signal inside the rate-limit window is the
	// same burst, not a second collapse.
	l.admit()
	l.release(deadline, deadline, true)
	if lim, _ := l.snapshot(); lim != 7 {
		t.Fatalf("limit after rate-limited decrease = %v, want still 7", lim)
	}

	// Near-deadline latency counts as congestion too (past the window).
	l.mu.Lock()
	l.lastDecrease = time.Now().Add(-decreaseEvery)
	l.mu.Unlock()
	l.admit()
	l.release(800*time.Millisecond, deadline, false) // headroom 0.8 >= 0.75
	lim, _ := l.snapshot()
	if math.Abs(lim-4.9) > 1e-9 {
		t.Fatalf("limit after latency decrease = %v, want 4.9", lim)
	}

	// Comfortable completions grow additively: +1/limit per completion.
	l.admit()
	l.release(10*time.Millisecond, deadline, false)
	if grown, _ := l.snapshot(); grown <= lim || grown > 5.2 {
		t.Fatalf("limit after increase = %v, want slightly above %v", grown, lim)
	}

	// The floor holds under sustained congestion.
	for i := 0; i < 10; i++ {
		l.mu.Lock()
		l.lastDecrease = time.Now().Add(-decreaseEvery)
		l.mu.Unlock()
		l.admit()
		l.release(deadline, deadline, true)
	}
	if lim, _ := l.snapshot(); lim != 2 {
		t.Fatalf("limit under sustained congestion = %v, want the floor 2", lim)
	}
}

// TestLimiterBrownoutLevels: occupancy of the current limit picks the
// brownout rung a request enters under — background work is shed from
// 0.55 occupancy, and past the limit the request is rejected.
func TestLimiterBrownoutLevels(t *testing.T) {
	l := newLimiter(10)
	var shed []bool
	for i := 0; i < 10; i++ {
		ok, s := l.admit()
		if !ok {
			t.Fatalf("admit %d rejected below the limit", i)
		}
		shed = append(shed, s)
	}
	// Occupancy 0.1..0.5 → nothing shed; 0.6..1.0 → shed work.
	want := []bool{false, false, false, false, false, true, true, true, true, true}
	if !slices.Equal(shed, want) {
		t.Fatalf("shed = %v, want %v", shed, want)
	}
	if ok, _ := l.admit(); ok {
		t.Fatal("admitted past the limit")
	}
}

// TestLimiterRetryAfter: the 429 Retry-After tracks the observed
// latency EWMA scaled by occupancy, clamped to [1s, 30s] and rounded up
// to whole seconds.
func TestLimiterRetryAfter(t *testing.T) {
	l := newLimiter(4)
	if got := l.retryAfter(); got != time.Second {
		t.Fatalf("no-data retryAfter = %v, want the 1s floor", got)
	}
	l.admit()
	l.release(5*time.Second, 0, false) // deadline 0: feeds EWMA only
	if got := l.retryAfter(); got != 5*time.Second {
		t.Fatalf("retryAfter with 5s EWMA = %v, want 5s", got)
	}
	l.mu.Lock()
	l.ewmaNS = float64(2 * time.Minute)
	l.mu.Unlock()
	if got := l.retryAfter(); got != 30*time.Second {
		t.Fatalf("retryAfter = %v, want the 30s cap", got)
	}
	l.mu.Lock()
	l.ewmaNS = float64(1500 * time.Millisecond)
	l.mu.Unlock()
	if got := l.retryAfter(); got != 2*time.Second {
		t.Fatalf("retryAfter = %v, want 1.5s rounded up to 2s", got)
	}
}

// --- per-client quotas ---

func TestQuotaBucket(t *testing.T) {
	q := newQuotas(1)
	now := time.Now()
	if ok, _ := q.allow("a", now); !ok {
		t.Fatal("first request rejected")
	}
	if ok, _ := q.allow("a", now); !ok {
		t.Fatal("burst capacity not honoured")
	}
	ok, retry := q.allow("a", now)
	if ok {
		t.Fatal("dry bucket admitted")
	}
	if retry != time.Second {
		t.Fatalf("retry = %v, want 1s at 1 rps", retry)
	}
	// Tokens accrue with time, capped at the burst.
	if ok, _ := q.allow("a", now.Add(1500*time.Millisecond)); !ok {
		t.Fatal("refilled bucket rejected")
	}
	// Other clients are unaffected.
	if ok, _ := q.allow("b", now); !ok {
		t.Fatal("independent client rejected")
	}
}

func TestQuotaDefaultBurst(t *testing.T) {
	if q := newQuotas(5); q.burst != 10 {
		t.Fatalf("burst = %v, want 2x rate", q.burst)
	}
	if q := newQuotas(0.1); q.burst != 1 {
		t.Fatalf("burst = %v, want floor 1", q.burst)
	}
}

// TestQuotaTableBounded: the client table is LRU-bounded, so an
// address-spraying client cannot grow it without limit.
func TestQuotaTableBounded(t *testing.T) {
	q := newQuotas(1)
	now := time.Now()
	for i := 0; i < quotaTableCap+100; i++ {
		q.allow(fmt.Sprintf("peer:%d", i), now)
	}
	if n := len(q.table); n > quotaTableCap {
		t.Fatalf("quota table grew to %d, cap %d", n, quotaTableCap)
	}
	if q.order.Len() != len(q.table) {
		t.Fatalf("LRU list (%d) out of sync with table (%d)", q.order.Len(), len(q.table))
	}
}

func TestClientKey(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/v1/reach", nil)
	r.RemoteAddr = "10.1.2.3:4444"
	if got := clientKey(r); got != "peer:10.1.2.3" {
		t.Fatalf("peer key = %q", got)
	}
	r.Header.Set("X-API-Key", "team-alpha_1")
	if got := clientKey(r); got != "key:team-alpha_1" {
		t.Fatalf("api key = %q", got)
	}
	// Hostile header values fall back to the peer address.
	r.Header.Set("X-API-Key", "evil key with spaces that is way too long to be allowed anywhere near a log line")
	if got := clientKey(r); got != "peer:10.1.2.3" {
		t.Fatalf("unsafe api key = %q, want peer fallback", got)
	}
}

// TestQuotaHTTP: a client that exhausts its bucket gets a typed 429 —
// Retry-After header, machine-readable code, request ID — while other
// clients' traffic is untouched.
func TestQuotaHTTP(t *testing.T) {
	// 0.5 rps: a one-token bucket that takes two seconds to refill.
	ts := server(t, Config{ClientRPS: 0.5})
	get := func(key string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/reach?start=11h&dur=10m&prob=0.2", nil)
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := get("alice")
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("request inside the burst = %d", first.StatusCode)
	}
	resp := get("alice")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota request = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"code":"overloaded"`) || !strings.Contains(string(body), `"request_id"`) {
		t.Fatalf("429 body not typed: %s", body)
	}
	// Alice's exhaustion is not Bob's problem.
	bob := get("bob")
	io.Copy(io.Discard, bob.Body)
	bob.Body.Close()
	if bob.StatusCode != http.StatusOK {
		t.Fatalf("independent client = %d, want 200", bob.StatusCode)
	}
}

var (
	shardedOnce sync.Once
	shardedSys  *streach.System
	shardedErr  error
)

// shardedSystem builds a 4-shard system over the shared fixture's data
// (the shared fixture stays unsharded).
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

// TestServeOverload is the acceptance scenario end to end: open-loop load
// on a 4-shard system, first with every admission slot held, then at
// four times the admission limit. Every response must be a 200 or a
// typed 429 with Retry-After — never an untyped 5xx — there must be at
// least one of each, and p99 stays within twice the deadline budget.
// Afterwards every scratch pool balances: shed queries drained their
// plans back.
func TestServeOverload(t *testing.T) {
	sys := shardedSystem(t)
	const deadline = 2 * time.Second
	srv := New(sys, Config{DefaultTimeout: deadline, MaxInFlight: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var (
		mu        sync.Mutex
		statuses  = map[int]int{}
		latencies []time.Duration
		bad       []string
	)
	// flood sends workers×perWorker requests from concurrent workers.
	// Distinct probabilities defeat singleflight coalescing, so every
	// request is real load.
	const workers, perWorker = 8, 5
	flood := func(round int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					prob := 0.10 + 0.01*float64(w*perWorker+i) + 0.001*float64(round)
					url := fmt.Sprintf("%s/v1/reach?start=11h&dur=10m&prob=%.3f", ts.URL, prob)
					began := time.Now()
					resp, err := http.Get(url)
					lat := time.Since(began)
					if err != nil {
						mu.Lock()
						bad = append(bad, err.Error())
						mu.Unlock()
						continue
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					mu.Lock()
					statuses[resp.StatusCode]++
					latencies = append(latencies, lat)
					switch resp.StatusCode {
					case http.StatusOK:
					case http.StatusTooManyRequests:
						if resp.Header.Get("Retry-After") == "" || !strings.Contains(string(body), `"code"`) {
							bad = append(bad, fmt.Sprintf("untyped 429: %s", body))
						}
					default:
						bad = append(bad, fmt.Sprintf("status %d: %s", resp.StatusCode, body))
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}
	// Saturated: every slot is held, so every request is shed.
	if !srv.acquire() || !srv.acquire() {
		t.Fatal("could not fill the admission limit")
	}
	flood(0)
	srv.release()
	srv.release()
	// Free: the first request in finds no query in flight and is
	// admitted whatever the limit has adapted to (its floor is 1).
	flood(1)

	if len(bad) > 0 {
		t.Fatalf("%d responses outside the 200/typed-429 contract; first: %s", len(bad), bad[0])
	}
	if statuses[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded under overload: %v", statuses)
	}
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("the saturated flood never saw a 429: %v", statuses)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if p99 := latencies[len(latencies)*99/100]; p99 > 2*deadline {
		t.Fatalf("p99 latency %v exceeds 2x the %v deadline budget", p99, deadline)
	}

	// The self-protection state is observable where operators look.
	resp, err := http.Get(ts.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"streach_admission_limit", "streach_admission_inflight",
		"streach_admission_rejected_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("prometheus exposition missing %s", want)
		}
	}

	// Scratch-drain regression (run after Close so no background warm is
	// mid-checkout): every pooled region and bitset came back, including
	// from shed queries.
	srv.Close()
	for i, st := range sys.ScratchStats() {
		if !st.Balanced() {
			t.Fatalf("scratch pool %d leaked across the overload flood: %+v", i, st)
		}
	}
}
