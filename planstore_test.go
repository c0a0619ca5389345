package streach

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streach/internal/core"
)

// cacheCfg is a system whose plan store parks plans (the shared fixture
// parks none — see smallSystem), shared by the store tests.
var cacheCfg = vcfg{planCache: 8, shared: true}

// fakePlan is a queryPlan with no engine behind it, for the store's own
// tests: it answers until it is closed, and closing it twice panics.
type fakePlan struct{ closed atomic.Bool }

func (p *fakePlan) ResultAt(context.Context, float64) (*core.Result, error) {
	if p.closed.Load() {
		return nil, errors.New("ResultAt on a closed plan")
	}
	return &core.Result{}, nil
}

func (p *fakePlan) Rebase() {}

func (p *fakePlan) Close() {
	if p.closed.Swap(true) {
		panic("plan closed twice")
	}
}

// loggedPlan is a queryPlan that logs its calls, in the order the store
// lets callers make them.
type loggedPlan struct{ calls []string }

func (p *loggedPlan) ResultAt(context.Context, float64) (*core.Result, error) {
	p.calls = append(p.calls, "answer")
	return &core.Result{}, nil
}

func (p *loggedPlan) Rebase() { p.calls = append(p.calls, "rebase") }
func (p *loggedPlan) Close()  {}

// holders reports how many callers hold (or wait on) key's entry.
func holders(c *planStore, key planKey) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e.refs
	}
	return 0
}

// stored reports how many plans the store holds, parked or in use.
func stored(c *planStore) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
	}
}

// TestPlanStoreSingleFlight: n concurrent acquirers of one key build
// one plan — one miss, n−1 coalesced waits — and the next acquirer
// finds it parked.
func TestPlanStoreSingleFlight(t *testing.T) {
	c := newPlanStore()
	key := planKey{shape: "k"}
	plan := &fakePlan{}
	gate := make(chan struct{})
	var builds atomic.Int32
	build := func(context.Context) (queryPlan, error) {
		builds.Add(1)
		<-gate
		return plan, nil
	}
	const n = 8
	hows := make(chan acquired, n)
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, how, err := c.acquire(context.Background(), key, build)
			if err != nil || e.plan != plan {
				t.Errorf("acquire = %v, %v", e, err)
				return
			}
			hows <- how
			c.release(e)
		}()
	}
	// Every acquirer is in before the build may finish.
	waitFor(t, func() bool { return holders(c, key) == n })
	close(gate)
	wg.Wait()
	close(hows)
	count := map[acquired]int{}
	for how := range hows {
		count[how]++
	}
	if builds.Load() != 1 || count[planMiss] != 1 || count[planCoalesced] != n-1 {
		t.Fatalf("%d builds, %d misses, %d coalesced; want 1, 1, %d", builds.Load(), count[planMiss], count[planCoalesced], n-1)
	}
	e, how, err := c.acquire(context.Background(), key, build)
	if err != nil || how != planHit || builds.Load() != 1 {
		t.Fatalf("after the flight: %v, %v, %d builds; want a hit on the parked plan", how, err, builds.Load())
	}
	c.release(e)
	if plan.closed.Load() {
		t.Fatal("a parked plan was closed")
	}
}

// TestPlanStoreBuilderAnswersFirst: callers that waited on a build do
// not touch the plan — in particular do not rebase its cost attribution
// — until the builder has answered off it, however long the builder
// takes to get there.
func TestPlanStoreBuilderAnswersFirst(t *testing.T) {
	c := newPlanStore()
	key := planKey{shape: "k"}
	plan := &loggedPlan{}
	gate := make(chan struct{})
	build := func(context.Context) (queryPlan, error) {
		<-gate
		return plan, nil
	}
	type held struct {
		e   *planEntry
		how acquired
	}
	builder := make(chan held, 1)
	go func() {
		e, how, err := c.acquire(context.Background(), key, build)
		if err != nil {
			t.Error(err)
		}
		builder <- held{e, how}
	}()
	waitFor(t, func() bool { return holders(c, key) == 1 })
	const waiters = 4
	var wg sync.WaitGroup
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, how, err := c.acquire(context.Background(), key, build)
			if err != nil || how != planCoalesced {
				t.Errorf("waiter: %v, %v", how, err)
				return
			}
			defer c.release(e)
			if _, err := e.resultAt(context.Background(), 0.5, how); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, func() bool { return holders(c, key) == 1+waiters })
	close(gate)
	b := <-builder
	if b.how != planMiss {
		t.Fatalf("first acquirer got %v, want a miss", b.how)
	}
	time.Sleep(20 * time.Millisecond) // room for the waiters to reach the plan, were they let
	if _, err := b.e.resultAt(context.Background(), 0.5, b.how); err != nil {
		t.Fatal(err)
	}
	c.release(b.e)
	wg.Wait()
	want := []string{"answer"}
	for range waiters {
		want = append(want, "rebase", "answer")
	}
	if !slices.Equal(plan.calls, want) {
		t.Fatalf("plan calls %v, want %v", plan.calls, want)
	}
}

// TestCoalescedDoCountsTheBuildOnce: when concurrent Do calls of one
// shape share one plan build, the builder's Metrics carry the build's
// Con-Index rows and every other caller's carry only its own answer's,
// so over the calls ConMaterialised and ConHits sum to the index's
// deltas exactly. A waiter that rebased the plan before the builder
// answered would wipe the build's rows from every caller's Metrics.
func TestCoalescedDoCountsTheBuildOnce(t *testing.T) {
	s := variant(t, vcfg{})
	const callers, rounds = 8, 12
	var built int64
	for round := range rounds {
		req := testQuery(s)
		req.Start += time.Duration(round) * 30 * time.Minute // a cold slot each round
		before, shared := s.con.Stats(), s.SharingStats()
		var (
			wg                 sync.WaitGroup
			mu                 sync.Mutex
			materialised, hits int64
		)
		start := make(chan struct{})
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				req := req
				req.Prob = 0.1 + 0.1*float64(i)
				reg, err := s.Do(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				materialised += reg.Metrics.ConMaterialised
				hits += reg.Metrics.ConHits
				mu.Unlock()
			}()
		}
		close(start)
		wg.Wait()
		after := s.con.Stats()
		if d := after.Materialised - before.Materialised; materialised != d {
			t.Fatalf("round %d: callers report %d rows materialised, the index %d", round, materialised, d)
		}
		if d := after.Hits - before.Hits; hits != d {
			t.Fatalf("round %d: callers report %d row hits, the index %d", round, hits, d)
		}
		if m := s.SharingStats().PlanCacheMisses - shared.PlanCacheMisses; m != 1 {
			t.Fatalf("round %d: %d plans built for one shape", round, m)
		}
		built += materialised
	}
	if built == 0 {
		t.Fatal("no build materialised a row; the fixture tests nothing")
	}
}

// TestPlanStoreBuilderDeadlineRetries: a builder that dies of its own
// deadline does not fail a live waiter — the waiter builds the plan
// itself.
func TestPlanStoreBuilderDeadlineRetries(t *testing.T) {
	c := newPlanStore()
	key := planKey{shape: "k"}
	plan := &fakePlan{}
	gate := make(chan struct{})
	var builds atomic.Int32
	build := func(context.Context) (queryPlan, error) {
		if builds.Add(1) == 1 {
			<-gate
			return nil, context.DeadlineExceeded // the builder's own deadline
		}
		return plan, nil
	}
	builderDone := make(chan error)
	go func() {
		_, _, err := c.acquire(context.Background(), key, build)
		builderDone <- err
	}()
	waitFor(t, func() bool { return holders(c, key) == 1 })
	type result struct {
		e   *planEntry
		how acquired
		err error
	}
	waiterDone := make(chan result)
	go func() {
		e, how, err := c.acquire(context.Background(), key, build)
		waiterDone <- result{e, how, err}
	}()
	waitFor(t, func() bool { return holders(c, key) == 2 })
	close(gate)
	if err := <-builderDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("builder = %v, want its own deadline", err)
	}
	r := <-waiterDone
	if r.err != nil || r.e.plan != plan || r.how != planMiss || builds.Load() != 2 {
		t.Fatalf("waiter = %v, %v, %d builds; want it to build the plan itself", r.how, r.err, builds.Load())
	}
	c.release(r.e)
}

// TestPlanStoreBuildErrorNotStored: a build that fails with anything
// but a context error fails every waiter with that error, and the next
// acquirer builds afresh; so it does after a build that panicked.
func TestPlanStoreBuildErrorNotStored(t *testing.T) {
	c := newPlanStore()
	key := planKey{shape: "k"}
	boom := errors.New("boom")
	gate := make(chan struct{})
	var builds atomic.Int32
	build := func(context.Context) (queryPlan, error) {
		builds.Add(1)
		<-gate
		return nil, boom
	}
	const n = 4
	errs := make(chan error, n)
	for range n {
		go func() {
			_, _, err := c.acquire(context.Background(), key, build)
			errs <- err
		}()
	}
	waitFor(t, func() bool { return holders(c, key) == n })
	close(gate)
	for range n {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("acquirer = %v, want the build's error", err)
		}
	}
	if builds.Load() != 1 || stored(c) != 0 {
		t.Fatalf("%d builds, %d stored; want 1 and nothing kept", builds.Load(), stored(c))
	}
	if _, how, err := c.acquire(context.Background(), key, build); how != planMiss || !errors.Is(err, boom) || builds.Load() != 2 {
		t.Fatalf("next acquire = %v, %v after %d builds; want a fresh build", how, err, builds.Load())
	}

	// A build that panics (the unsharded engine does not recover a
	// panicking store read) goes on up the builder's stack and leaves
	// nothing behind that a later acquirer could wait on forever.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the build's panic did not reach the builder")
			}
		}()
		c.acquire(context.Background(), key, func(context.Context) (queryPlan, error) { panic("build panicked") })
	}()
	e, how, err := c.acquire(context.Background(), key, func(context.Context) (queryPlan, error) { return &fakePlan{}, nil })
	if err != nil || how != planMiss {
		t.Fatalf("acquire after a panicked build = %v, %v; want a fresh build", how, err)
	}
	c.release(e)
}

// TestPlanStoreHeldPlanOutlivesClear: neither LRU eviction nor clear
// closes a plan a caller holds — it is closed at its last release —
// while parked plans close when evicted or cleared. Under -race, one
// goroutine answers off the held plan throughout.
func TestPlanStoreHeldPlanOutlivesClear(t *testing.T) {
	c := newPlanStore()
	c.cap = 2
	plans := map[string]*fakePlan{"a": {}, "b": {}, "c": {}}
	acquire := func(shape string) *planEntry {
		e, how, err := c.acquire(context.Background(), planKey{shape: shape}, func(context.Context) (queryPlan, error) {
			return plans[shape], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if how == planMiss {
			e.mu.Unlock() // the builder's first answer, not asked for here
		}
		return e
	}
	a := acquire("a")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := a.resultAt(context.Background(), 0.5, planHit); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	stopReader := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopReader() // before the test ends, also when it fails
	c.release(acquire("b"))
	c.release(acquire("c")) // three plans for two places: b, the oldest parked, goes
	if !plans["b"].closed.Load() || plans["c"].closed.Load() || plans["a"].closed.Load() {
		t.Fatal("eviction closed the wrong plans")
	}
	c.clear()
	if !plans["c"].closed.Load() || plans["a"].closed.Load() {
		t.Fatal("clear must close the parked plan and keep the held one")
	}
	stopReader()
	c.release(a)
	if !plans["a"].closed.Load() || stored(c) != 0 {
		t.Fatal("the held plan was not closed at its last release")
	}
}

// TestPlanCacheCrossBatch: a second batch of concurrent requests asking
// the same shapes must ride the first batch's plans — counted as hits —
// and still answer bit-identically to the offline build.
func TestPlanCacheCrossBatch(t *testing.T) {
	s := variant(t, cacheCfg)
	reqs := requestMatrix(s, 11*time.Hour).full
	before := s.SharingStats()
	checkOracle(t, reference(t), concurrent(s), reqs)
	checkOracle(t, reference(t), concurrent(s), reqs)
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

// TestGroupKeyFoldsEngineOptions is the regression test for the plan
// key's option bits: requests that differ in a result-affecting
// per-query option (VerifyAll, EarlyStop, NoVisitedSet, NoOverlapFilter)
// must not share a plan, while cost-only options (VerifyWorkers) and the
// threshold still share.
func TestGroupKeyFoldsEngineOptions(t *testing.T) {
	req := ReachRequest(Location{Lat: 22.5, Lng: 114.0}, 11*time.Hour, 10*time.Minute, 0.2)
	base := queryOptions{}
	keyOf := func(qo queryOptions) string { return shapeKey(req, qo) }

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
			t.Fatalf("%s: option not folded into the plan key", name)
		}
	}
	vw := base
	vw.engine.VerifyWorkers = 7
	if keyOf(vw) != keyOf(base) {
		t.Fatal("VerifyWorkers changed the plan key; it only affects cost, not results")
	}
	strict := req
	strict.Prob = 0.9
	if shapeKey(strict, base) != keyOf(base) {
		t.Fatal("the threshold changed the plan key; plans are shared across it")
	}
}

// TestGroupKeyOptionsEndToEnd: with the store on, a VerifyAll query
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

// TestPlanCacheInvalidation: Close and re-sharding flush the store.
func TestPlanCacheInvalidation(t *testing.T) {
	base := smallSystem(t)
	s := variant(t, vcfg{planCache: 8})
	loc := base.BusiestLocation(11 * time.Hour)
	if _, err := s.Do(context.Background(), ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2)); err != nil {
		t.Fatal(err)
	}
	if stored(s.plans) == 0 {
		t.Fatal("plan not parked in the store")
	}
	if err := s.Shard(2); err != nil {
		t.Fatal(err)
	}
	if stored(s.plans) != 0 {
		t.Fatal("re-sharding must flush the plan store")
	}
	if _, err := s.Do(context.Background(), ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2)); err != nil {
		t.Fatal(err)
	}
	if stored(s.plans) == 0 {
		t.Fatal("sharded plan not parked in the store")
	}
	s.Close()
	if stored(s.plans) != 0 {
		t.Fatal("Close must flush the plan store")
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
	if got := stored(s.plans); got != 2 {
		t.Fatalf("store holds %d plans, capacity 2", got)
	}
}

// TestPlanCacheGrow: EnableWarmPlanning must grow the store to hold
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
	if got := stored(s.plans); got != 4 {
		t.Fatalf("grown store holds %d plans after warming 4 shapes, want 4", got)
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
