package streach

import (
	"context"
	"testing"
	"time"
)

// cacheCfg is a system with the cross-batch plan cache on (the shared
// fixture disables it — see smallSystem), shared by the cache tests.
var cacheCfg = vcfg{planCache: 8, shared: true}

// TestPlanCacheCrossBatch: a second batch with the same group key must
// ride the first batch's plan — counted as a cache hit — and still
// answer bit-identically to the offline build.
func TestPlanCacheCrossBatch(t *testing.T) {
	s := variant(t, cacheCfg)
	reqs := requestMatrix(s, 11*time.Hour).full
	before := s.SharingStats()
	checkOracle(t, reference(t), batched(s), reqs)
	checkOracle(t, reference(t), batched(s), reqs)
	if after := s.SharingStats(); after.PlanCacheHits <= before.PlanCacheHits {
		t.Fatalf("no plan-cache hit across batches: %+v -> %+v", before, after)
	}
}

// TestPlanCacheDoPath: single Do calls share plans across calls too,
// unsharded and on four shards: every repeated request is a hit and
// answers bit-identically to the offline build.
func TestPlanCacheDoPath(t *testing.T) {
	s := variant(t, vcfg{})
	reqs := requestMatrix(s, 11*time.Hour+5*time.Minute).full
	for _, k := range []int{1, 4} {
		if err := s.Shard(k); err != nil {
			t.Fatal(err)
		}
		checkOracle(t, reference(t), serial(s), reqs)
		before := s.SharingStats()
		checkOracle(t, reference(t), serial(s), reqs)
		if hits := s.SharingStats().PlanCacheHits - before.PlanCacheHits; hits != int64(len(valid(reqs))) {
			t.Fatalf("Shard(%d): %d of %d repeated requests hit the plan cache", k, hits, len(valid(reqs)))
		}
	}
}

// TestGroupKeyFoldsEngineOptions is the regression test for the
// group-key bug: requests that differ in a result-affecting per-query
// option (VerifyAll, EarlyStop, NoVisitedSet, NoOverlapFilter) must not
// share a plan — in a batch group or across the plan cache — while
// cost-only options (VerifyWorkers) still share.
func TestGroupKeyFoldsEngineOptions(t *testing.T) {
	req := ReachRequest(Location{Lat: 22.5, Lng: 114.0}, 11*time.Hour, 10*time.Minute, 0.2)
	base := queryOptions{}
	keyOf := func(qo queryOptions) string { return groupKey(req, qo) }

	va := base
	va.engine.VerifyAll = true
	es := base
	es.engine.EarlyStop = true
	nv := base
	nv.engine.NoVisitedSet = true
	nf := base
	nf.engine.NoOverlapFilter = true
	for name, qo := range map[string]queryOptions{
		"verify-all": va, "early-stop": es, "no-visited": nv, "no-overlap": nf,
	} {
		if keyOf(qo) == keyOf(base) {
			t.Fatalf("%s: option not folded into the group key", name)
		}
	}
	vw := base
	vw.engine.VerifyWorkers = 7
	if keyOf(vw) != keyOf(base) {
		t.Fatal("VerifyWorkers changed the group key; it only affects cost, not results")
	}
}

// TestGroupKeyOptionsEndToEnd: with the cache on, a VerifyAll query
// right after a default query must not reuse the default plan — the two
// answers differ in which segments carry verified probabilities.
func TestGroupKeyOptionsEndToEnd(t *testing.T) {
	s := variant(t, cacheCfg)
	all := requestMatrix(s, 11*time.Hour+10*time.Minute).full
	var reqs []oracleReq
	for _, q := range all {
		if q.req.Prob == 0.05 && (q.kind == "reach" || q.kind == "reach-verifyall") {
			reqs = append(reqs, q)
		}
	}
	checkOracle(t, reference(t), serial(s), reqs)
	want := reference(t)(reqs)
	def, verified := want[0].Region, want[1].Region
	unverifiedDef := 0
	for _, p := range def.Probabilities {
		if p < 0 {
			unverifiedDef++
		}
	}
	for _, p := range verified.Probabilities {
		if p < 0 {
			t.Fatal("VerifyAll result carries unverified segments; the policies were not distinguished")
		}
	}
	if unverifiedDef == 0 {
		t.Skip("default policy verified everything on this world; option split not observable")
	}
}

// TestPlanCacheInvalidation: Close and re-sharding flush the cache.
func TestPlanCacheInvalidation(t *testing.T) {
	base := smallSystem(t)
	s := variant(t, vcfg{planCache: 8})
	loc := base.BusiestLocation(11 * time.Hour)
	if _, err := s.Do(context.Background(), ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2)); err != nil {
		t.Fatal(err)
	}
	if s.plans.len() == 0 {
		t.Fatal("plan not parked in the cache")
	}
	if err := s.Shard(2); err != nil {
		t.Fatal(err)
	}
	if s.plans.len() != 0 {
		t.Fatal("re-sharding must flush the plan cache")
	}
	if _, err := s.Do(context.Background(), ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2)); err != nil {
		t.Fatal(err)
	}
	if s.plans.len() == 0 {
		t.Fatal("sharded plan not parked in the cache")
	}
}

// TestPlanCacheEviction: the LRU respects its capacity.
func TestPlanCacheEviction(t *testing.T) {
	base := smallSystem(t)
	s := variant(t, vcfg{planCache: 2})
	loc := base.BusiestLocation(11 * time.Hour)
	for i := 0; i < 4; i++ {
		req := ReachRequest(loc, 11*time.Hour+time.Duration(i)*5*time.Minute, 10*time.Minute, 0.2)
		if _, err := s.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.plans.len(); got > 2 {
		t.Fatalf("cache holds %d plans, capacity 2", got)
	}
}

// TestPlanCacheGrow: EnableWarmPlanning must grow the cache to hold
// what it warms — warming N shapes into a smaller LRU would evict its
// own work.
func TestPlanCacheGrow(t *testing.T) {
	base := smallSystem(t)
	s := variant(t, vcfg{planCache: 2})
	loc := base.BusiestLocation(11 * time.Hour)
	for i := 0; i < 4; i++ {
		req := ReachRequest(loc, 11*time.Hour+time.Duration(i)*5*time.Minute, 10*time.Minute, 0.2)
		if _, err := s.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	s.plans.clear()
	s.EnableWarmPlanning(8)
	s.warmWG.Wait()
	if got := s.plans.len(); got != 4 {
		t.Fatalf("grown cache holds %d plans after warming 4 shapes, want 4", got)
	}
	// grow never shrinks.
	s.plans.grow(1)
	s.plans.mu.Lock()
	cap := s.plans.cap
	s.plans.mu.Unlock()
	if cap != 8 {
		t.Fatalf("cap = %d after grow(1), want 8", cap)
	}
}
