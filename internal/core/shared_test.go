package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"
)

// sharedProbs are the thresholds one plan answers in the equivalence
// tests: a shared plan must reproduce each of them bit-identically.
var sharedProbs = []float64{0.05, 0.2, 0.5, 0.9}

// sameResult asserts two Results agree on everything the caller can
// observe deterministically: segments, probabilities, starts, and the
// verification count.
func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Segments, want.Segments) {
		t.Fatalf("%s: segments differ (%d vs %d)", name, len(got.Segments), len(want.Segments))
	}
	if !reflect.DeepEqual(got.Starts, want.Starts) {
		t.Fatalf("%s: starts differ", name)
	}
	if len(got.Probability) != len(want.Probability) {
		t.Fatalf("%s: probability map sizes differ (%d vs %d)",
			name, len(got.Probability), len(want.Probability))
	}
	for s, p := range want.Probability {
		if gp, ok := got.Probability[s]; !ok || gp != p {
			t.Fatalf("%s: probability of %d = %v, want %v", name, s, got.Probability[s], p)
		}
	}
	if got.Metrics.Evaluated != want.Metrics.Evaluated {
		t.Fatalf("%s: evaluated %d, want %d", name, got.Metrics.Evaluated, want.Metrics.Evaluated)
	}
}

// TestSharedPlanMatchesIndependent: one plan answering several
// probability thresholds must be bit-identical to a fresh independent
// execution per threshold, across every algorithm and trace-back policy.
func TestSharedPlanMatchesIndependent(t *testing.T) {
	f := getFixture(t)
	q := baseQuery(f)
	multi := MultiQuery{Start: q.Start, Duration: q.Duration}
	e0 := newEngine(t, Options{})
	starts := multiStarts(t, e0, f, 3)
	for _, s := range starts {
		multi.Locations = append(multi.Locations, e0.net.Segment(s).Midpoint())
	}

	type algo struct {
		name string
		opts Options
		plan func(e *Engine) (*SharedPlan, error)
		ref  func(e *Engine, prob float64) (*Result, error)
	}
	algos := []algo{
		{"sqmb", Options{},
			func(e *Engine) (*SharedPlan, error) { return e.PlanReach(bg, q) },
			func(e *Engine, prob float64) (*Result, error) {
				qq := q
				qq.Prob = prob
				return oneShot(bg, e.PlanReach, qq)
			}},
		{"sqmb-verifyall", Options{VerifyAll: true},
			func(e *Engine) (*SharedPlan, error) { return e.PlanReach(bg, q) },
			func(e *Engine, prob float64) (*Result, error) {
				qq := q
				qq.Prob = prob
				return oneShot(bg, e.PlanReach, qq)
			}},
		{"sqmb-earlystop", Options{EarlyStop: true},
			func(e *Engine) (*SharedPlan, error) { return e.PlanReach(bg, q) },
			func(e *Engine, prob float64) (*Result, error) {
				qq := q
				qq.Prob = prob
				return oneShot(bg, e.PlanReach, qq)
			}},
		{"reverse", Options{},
			func(e *Engine) (*SharedPlan, error) { return e.PlanReverse(bg, q) },
			func(e *Engine, prob float64) (*Result, error) {
				qq := q
				qq.Prob = prob
				return oneShot(bg, e.PlanReverse, qq)
			}},
		{"es", Options{},
			func(e *Engine) (*SharedPlan, error) { return e.PlanReachES(bg, q) },
			func(e *Engine, prob float64) (*Result, error) {
				qq := q
				qq.Prob = prob
				return oneShot(bg, e.PlanReachES, qq)
			}},
		{"reverse-es", Options{},
			func(e *Engine) (*SharedPlan, error) { return e.PlanReverseES(bg, q) },
			func(e *Engine, prob float64) (*Result, error) {
				qq := q
				qq.Prob = prob
				return oneShot(bg, e.PlanReverseES, qq)
			}},
		{"mqmb", Options{},
			func(e *Engine) (*SharedPlan, error) { return e.PlanMulti(bg, multi) },
			func(e *Engine, prob float64) (*Result, error) {
				m := multi
				m.Prob = prob
				return oneShot(bg, e.PlanMulti, m)
			}},
		{"sequential", Options{},
			func(e *Engine) (*SharedPlan, error) { return e.PlanMultiSequential(bg, multi) },
			func(e *Engine, prob float64) (*Result, error) {
				m := multi
				m.Prob = prob
				return oneShot(bg, e.PlanMultiSequential, m)
			}},
	}

	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			e := newEngine(t, a.opts)
			plan, err := a.plan(e)
			if err != nil {
				t.Fatal(err)
			}
			defer plan.Close()
			for _, prob := range sharedProbs {
				shared, err := plan.ResultAt(bg, prob)
				if err != nil {
					t.Fatalf("ResultAt(%v): %v", prob, err)
				}
				independent, err := a.ref(e, prob)
				if err != nil {
					t.Fatalf("independent(%v): %v", prob, err)
				}
				sameResult(t, a.name, shared, independent)
			}
		})
	}
}

// TestSharedPlanThresholdMonotonic: sanity that the shared probability
// map actually discriminates thresholds — a stricter prob can only shrink
// the result.
func TestSharedPlanThresholdMonotonic(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	plan, err := e.PlanReach(bg, baseQuery(f))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	probs := append([]float64(nil), sharedProbs...)
	sort.Float64s(probs)
	prev := -1
	for i := len(probs) - 1; i >= 0; i-- {
		res, err := plan.ResultAt(bg, probs[i])
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && len(res.Segments) < prev {
			t.Fatalf("loosening prob to %v shrank the region: %d -> %d",
				probs[i], prev, len(res.Segments))
		}
		prev = len(res.Segments)
	}
}

// TestSharedPlanValidation: bad thresholds and closed plans are rejected
// with the same error surface as independent execution.
func TestSharedPlanValidation(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	plan, err := e.PlanReach(bg, baseQuery(f))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.ResultAt(bg, 0); err == nil {
		t.Fatal("ResultAt accepted prob=0")
	}
	if _, err := plan.ResultAt(bg, 1.5); err == nil {
		t.Fatal("ResultAt accepted prob=1.5")
	}
	plan.Close()
	if _, err := plan.ResultAt(bg, 0.2); err == nil {
		t.Fatal("ResultAt succeeded on a closed plan")
	}
	// Bad windows fail at plan time with validate's wording.
	if _, err := e.PlanReach(bg, Query{Location: f.center, Start: 11 * time.Hour, Duration: -time.Minute}); err == nil {
		t.Fatal("PlanReach accepted a negative duration")
	}
}

// TestSharedPlanCancellation: a cancelled context aborts plan
// construction and lazy ResultAt waves.
func TestSharedPlanCancellation(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := e.PlanReach(cancelled, baseQuery(f)); !errors.Is(err, context.Canceled) {
		t.Fatalf("PlanReach under cancelled ctx = %v, want Canceled", err)
	}

	plan, err := e.PlanReach(bg, baseQuery(f))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	if _, err := plan.ResultAt(cancelled, 0.2); !errors.Is(err, context.Canceled) {
		t.Fatalf("ResultAt under cancelled ctx = %v, want Canceled", err)
	}
}
