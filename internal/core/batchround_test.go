package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"streach/internal/conindex"
	"streach/internal/geo"
)

// coldEngine is an engine over the fixture's ST-Index and a Con-Index of
// its own with nothing materialised: every bounding round of its first
// queries is a cold one.
func coldEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	f := getFixture(t)
	con, err := conindex.Build(f.net, f.ds, conindex.Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f.st, con, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func atProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestConcurrentColdQueriesCountTheirOwnRows: Metrics.ConMaterialised is
// what the query's own plan built, so over queries racing on one cold
// slot it sums to the index's Materialised delta exactly (as deltas of
// the index-wide counters each query also reported its neighbours'
// rows), and that delta is the distinct keys — what one query alone
// builds — however many queries raced for them.
func TestConcurrentColdQueriesCountTheirOwnRows(t *testing.T) {
	atProcs(t, 8)
	f := getFixture(t)
	q := baseQuery(f)
	mq := MultiQuery{Locations: []geo.Point{q.Location}, Start: q.Start, Duration: q.Duration}
	run := func(e *Engine, i int) (*Result, error) {
		switch i % 3 {
		case 0:
			return oneShot(bg, e.PlanReach, q, 0.2)
		case 1:
			return oneShot(bg, e.PlanReverse, q, 0.2)
		}
		return oneShot(bg, e.PlanMulti, mq, 0.2)
	}

	alone := coldEngine(t, Options{})
	for i := 0; i < 3; i++ {
		res, err := run(alone, i)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 && res.Metrics.ConMaterialised == 0 {
			t.Fatal("a query over a cold index materialised nothing; the fixture tests nothing")
		}
	}
	distinct := alone.ConIndex().Stats().Materialised

	e := coldEngine(t, Options{})
	const queries = 12
	var (
		wg                 sync.WaitGroup
		mu                 sync.Mutex
		materialised, hits int64
	)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := run(e, i)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			materialised += res.Metrics.ConMaterialised
			hits += res.Metrics.ConHits
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	st := e.ConIndex().Stats()
	if materialised != st.Materialised || hits != st.Hits {
		t.Fatalf("queries report %d materialised, %d hits; the index %d and %d", materialised, hits, st.Materialised, st.Hits)
	}
	if st.Materialised != distinct {
		t.Fatalf("%d expansions for %d distinct keys", st.Materialised, distinct)
	}
}

// TestCancelMidColdRound cancels a cold query at checkpoints that land
// in its first rounds' fanned-out expansions: the query returns the
// context's error, the round's workers are gone and every pooled region
// and bitset is back.
func TestCancelMidColdRound(t *testing.T) {
	atProcs(t, 8)
	f := getFixture(t)
	q := baseQuery(f)
	q.Duration = 20 * time.Minute
	for _, polls := range []int{3, 12, 60, 200} {
		e := coldEngine(t, Options{})
		base := runtime.NumGoroutine()
		if _, err := oneShot(cancelAfterN(polls), e.PlanReach, q, 0.2); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at poll %d: err = %v, want context.Canceled", polls, err)
		}
		if e.ConIndex().Stats().Materialised == 0 && polls >= 60 {
			t.Fatalf("cancel at poll %d landed before any expansion; the fixture tests nothing", polls)
		}
		if st := e.ScratchStats(); !st.Balanced() {
			t.Fatalf("cancel at poll %d leaked scratch: %+v", polls, st)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("cancel at poll %d: %d goroutines, %d before the query", polls, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
		// The keys the cancelled rounds left cold materialise as usual.
		if _, err := oneShot(bg, e.PlanReach, q, 0.2); err != nil {
			t.Fatal(err)
		}
	}
}
