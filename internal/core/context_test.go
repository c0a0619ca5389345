package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"streach/internal/geo"
	"streach/internal/roadnet"
)

// cancelAfter is a context that reports Canceled after its Err method has
// been consulted n times: a deterministic way to cancel "mid-query" at
// exactly the n-th checkpoint, with no timing dependence. Done() is never
// closed — the engine's checkpoints poll Err directly.
type cancelAfter struct {
	context.Context
	remaining atomic.Int64
}

func cancelAfterN(n int) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.remaining.Store(int64(n))
	return c
}

func (c *cancelAfter) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestQueriesHonourPreCancelledContext: every query method must notice a
// context that is already cancelled and return its error without
// answering.
func TestQueriesHonourPreCancelledContext(t *testing.T) {
	e := newEngine(t, Options{})
	f := getFixture(t)
	q := baseQuery(f)
	mq := MultiQuery{Locations: []geo.Point{q.Location}, Start: q.Start, Duration: q.Duration, Prob: q.Prob}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() error{
		"SQMB":             func() error { _, err := oneShot(ctx, e.PlanReach, q); return err },
		"ES":               func() error { _, err := oneShot(ctx, e.PlanReachES, q); return err },
		"ReverseSQMB":      func() error { _, err := oneShot(ctx, e.PlanReverse, q); return err },
		"ReverseES":        func() error { _, err := oneShot(ctx, e.PlanReverseES, q); return err },
		"MQMB":             func() error { _, err := oneShot(ctx, e.PlanMulti, mq); return err },
		"SQuerySequential": func() error { _, err := oneShot(ctx, e.PlanMultiSequential, mq); return err },
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx = %v, want context.Canceled", name, err)
		}
	}
}

// TestCancelMidQuery cancels at progressively later checkpoints: wherever
// the n-th Err poll lands — inside a Con-Index Dijkstra, between bounding
// rounds, or in the verify pool — the query must surface Canceled, never
// a partial answer.
func TestCancelMidQuery(t *testing.T) {
	f := getFixture(t)
	q := baseQuery(f)
	q.Duration = 20 * time.Minute
	for _, workers := range []int{1, 4} {
		e := newEngine(t, Options{VerifyWorkers: workers})
		// Budgets stay below the checkpoint-poll total of a warm query
		// (bounding rounds + one per verified candidate — several hundred
		// on the fixture world) so the cancel always lands mid-query.
		for _, n := range []int{1, 10, 100} {
			if _, err := oneShot(cancelAfterN(n), e.PlanReach, q); !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d n=%d: err = %v, want context.Canceled", workers, n, err)
			}
		}
	}
}

// TestCancelInsideVerifyPool drives verifyMany directly with a context
// that expires after the pool has started claiming candidates: the pool
// must stop early and return Canceled (this exercises the per-claim ctx
// check inside the workers, not the serial path).
func TestCancelInsideVerifyPool(t *testing.T) {
	e := newEngine(t, Options{VerifyWorkers: 4})
	segs := make([]roadnet.SegmentID, 256)
	for i := range segs {
		segs[i] = roadnet.SegmentID(i)
	}
	var probed atomic.Int64
	newWorker := func() func(roadnet.SegmentID) (float64, error) {
		return func(roadnet.SegmentID) (float64, error) {
			probed.Add(1)
			return 0.5, nil
		}
	}
	// The budget covers the first few claims only.
	_, err := e.verifyMany(cancelAfterN(8), segs, newWorker)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("verifyMany = %v, want context.Canceled", err)
	}
	if n := probed.Load(); n >= int64(len(segs)) {
		t.Fatalf("verify pool probed all %d candidates despite cancellation", n)
	}
}

// TestWithOptionsOverridesPerQuery: WithOptions must produce an engine
// view with the new options while leaving the original untouched, and
// both views must answer over the same shared indexes.
func TestWithOptionsOverridesPerQuery(t *testing.T) {
	base := newEngine(t, Options{})
	f := getFixture(t)
	q := baseQuery(f)

	all := base.WithOptions(Options{VerifyAll: true})
	if base.Options().VerifyAll {
		t.Fatal("WithOptions mutated the base engine")
	}
	if !all.Options().VerifyAll {
		t.Fatal("WithOptions did not apply")
	}

	defRes, err := oneShot(bg, base.PlanReach, q)
	if err != nil {
		t.Fatal(err)
	}
	allRes, err := oneShot(bg, all.PlanReach, q)
	if err != nil {
		t.Fatal(err)
	}
	// VerifyAll probes the minimum region too, so it must evaluate
	// strictly more segments than the default policy on the same query.
	if defRes.Metrics.MinRegion > 0 && allRes.Metrics.Evaluated <= defRes.Metrics.Evaluated {
		t.Fatalf("VerifyAll evaluated %d segments, default %d — override had no effect",
			allRes.Metrics.Evaluated, defRes.Metrics.Evaluated)
	}
}
