package streach

import (
	"context"
	"testing"
	"time"
)

// assertScratchBalanced checks that every engine scratch pool in the
// system — the planner/base engine and each shard engine — has returned
// every pooled region and bitset it checked out. With no query in
// flight, an imbalance is a leak on some error, panic, or cancellation
// path.
func assertScratchBalanced(t *testing.T, s *System, when string) {
	t.Helper()
	if st := s.engine.ScratchStats(); !st.Balanced() {
		t.Fatalf("%s: base engine scratch leaked: %+v", when, st)
	}
	if c := s.cluster.Load(); c != nil {
		for i, st := range c.ScratchStats() {
			if !st.Balanced() {
				t.Fatalf("%s: cluster engine %d scratch leaked: %+v", when, i, st)
			}
		}
	}
}

// TestScratchPoolIntegrityAcrossShardFailure is the pool-ownership
// regression test: a shard failing (typed error and recovered panic)
// mid-DoBatch must not leak pooled bounding regions or bitsets — the
// error paths through plan construction, scatter, and release must
// return everything they checked out, and the pool must keep serving
// healthy traffic afterwards.
func TestScratchPoolIntegrityAcrossShardFailure(t *testing.T) {
	s := variant(t, chaosCfg)
	q := testQuery(s)

	// A batch with shareable groups (same window, different thresholds)
	// plus a distinct window, so both the grouped and ungrouped DoBatch
	// paths run.
	reqs := []Request{
		ReachRequest(q.Locations[0], 11*time.Hour, 10*time.Minute, 0.2),
		ReachRequest(q.Locations[0], 11*time.Hour, 10*time.Minute, 0.4),
		ReachRequest(q.Locations[0], 11*time.Hour, 10*time.Minute, 0.6),
		ReachRequest(q.Locations[0], 11*time.Hour+30*time.Minute, 10*time.Minute, 0.3),
	}
	ctx := context.Background()

	for _, res := range s.DoBatch(ctx, reqs) {
		if res.Err != nil {
			t.Fatalf("healthy batch: %v", res.Err)
		}
	}
	assertScratchBalanced(t, s, "after healthy batch")

	for _, fault := range []ShardFault{ShardFaultError, ShardFaultPanic} {
		if err := s.InjectShardFault(2, fault); err != nil {
			t.Fatal(err)
		}
		failures := 0
		for _, res := range s.DoBatch(ctx, reqs) {
			if res.Err != nil {
				failures++
				if CodeOf(res.Err) != ShardFailure {
					t.Fatalf("fault %v: code = %v, want ShardFailure (%v)", fault, CodeOf(res.Err), res.Err)
				}
			}
		}
		if failures == 0 {
			t.Fatalf("fault %v: no request failed; the injected shard was never exercised", fault)
		}
		assertScratchBalanced(t, s, "after faulted batch ("+fault.String()+")")
	}

	// Cancellation mid-batch is the third error path worth pinning.
	clearChaos(t, s)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, res := range s.DoBatch(cancelled, reqs) {
		if res.Err == nil {
			t.Fatal("cancelled batch returned a result")
		}
	}
	assertScratchBalanced(t, s, "after cancelled batch")

	// And the pool still serves healthy traffic.
	for _, res := range s.DoBatch(ctx, reqs) {
		if res.Err != nil {
			t.Fatalf("healed batch: %v", res.Err)
		}
	}
	assertScratchBalanced(t, s, "after healed batch")
}
