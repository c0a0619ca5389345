package core

import (
	"context"
	"testing"
	"time"
)

func TestReverseSQMBBasics(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	q := baseQuery(f)
	res, err := oneShot(bg, e.PlanReverse, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) == 0 {
		t.Fatal("reverse region from the busiest segment should be non-empty")
	}
	if res.Metrics.MaxRegion < len(res.Segments) {
		t.Fatalf("reverse max region %d < result %d", res.Metrics.MaxRegion, len(res.Segments))
	}
	if res.Metrics.Evaluated == 0 {
		t.Fatal("reverse query should verify candidates")
	}
}

func TestReverseESMatchesReverseVerifyAll(t *testing.T) {
	f := getFixture(t)
	exact := newEngine(t, Options{VerifyAll: true})
	q := baseQuery(f)
	es, err := oneShot(bg, exact.PlanReverseES, q)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := oneShot(bg, exact.PlanReverse, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(es.Segments) == 0 {
		t.Fatal("reverse ES found nothing")
	}
	esSet := toSet(es.Segments)
	missing := 0
	for _, s := range sq.Segments {
		if !esSet[s] {
			missing++
		}
	}
	if frac := float64(missing) / float64(max(1, len(sq.Segments))); frac > 0.05 {
		t.Fatalf("%.0f%% of reverse SQMB result missing from reverse ES", frac*100)
	}
}

func TestReverseCheaperPerCandidate(t *testing.T) {
	// Reverse candidates cost one time-list read each, so the reverse
	// probe should walk far fewer lists per candidate than the forward
	// probe, which reads every slot of the window. Counted by the probes'
	// own matchers: verification no longer decodes through the cache, so
	// the decoded-cache counters see neither direction.
	f := getFixture(t)
	e := newEngine(t, Options{})
	q := baseQuery(f)
	listsPerCandidate := func(plan func(context.Context, Query, ...PlanOption) (*SharedPlan, error)) float64 {
		t.Helper()
		p, err := plan(bg, q, DeferVerification())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		w := p.pr.worker()
		for _, seg := range p.Candidates() {
			if _, err := w.prob(seg); err != nil {
				t.Fatal(err)
			}
		}
		if len(p.Candidates()) == 0 || w.m.Lists() == 0 {
			t.Fatalf("%d candidates walked %d lists", len(p.Candidates()), w.m.Lists())
		}
		return float64(w.m.Lists()) / float64(len(p.Candidates()))
	}
	fwd, rev := listsPerCandidate(e.PlanReach), listsPerCandidate(e.PlanReverse)
	if rev >= fwd {
		t.Fatalf("reverse per-candidate lists walked (%.2f) should be below forward (%.2f)", rev, fwd)
	}
}

func TestReverseRegionDirectionality(t *testing.T) {
	// On a one-way ring... our generated city is mostly two-way, so test
	// the weaker directional property: the reverse region of a segment
	// at T is not identical to the forward region unless the city is
	// fully symmetric. Just assert both run and are plausibly sized.
	f := getFixture(t)
	e := newEngine(t, Options{})
	q := baseQuery(f)
	fwd, err := oneShot(bg, e.PlanReach, q)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := oneShot(bg, e.PlanReverse, q)
	if err != nil {
		t.Fatal(err)
	}
	if rev.Metrics.MaxRegion == 0 || fwd.Metrics.MaxRegion == 0 {
		t.Fatal("both directions should produce bounding regions")
	}
}

func TestReverseValidation(t *testing.T) {
	e := newEngine(t, Options{})
	f := getFixture(t)
	q := baseQuery(f)
	q.Prob = -1
	if _, err := oneShot(bg, e.PlanReverse, q); err == nil {
		t.Fatal("invalid Prob should error")
	}
	if _, err := oneShot(bg, e.PlanReverseES, q); err == nil {
		t.Fatal("invalid Prob should error for ES too")
	}
}

func TestReverseMonotoneInProb(t *testing.T) {
	f := getFixture(t)
	exact := newEngine(t, Options{VerifyAll: true})
	q := baseQuery(f)
	q.Prob = 0.2
	loose, err := oneShot(bg, exact.PlanReverse, q)
	if err != nil {
		t.Fatal(err)
	}
	q.Prob = 0.8
	strict, err := oneShot(bg, exact.PlanReverse, q)
	if err != nil {
		t.Fatal(err)
	}
	looseSet := toSet(loose.Segments)
	for _, s := range strict.Segments {
		if !looseSet[s] {
			t.Fatalf("segment %d reverse-reachable at 80%% but not 20%%", s)
		}
	}
}

func TestReverseDurationGrowsRegion(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	q := baseQuery(f)
	q.Duration = 5 * time.Minute
	small, err := oneShot(bg, e.PlanReverse, q)
	if err != nil {
		t.Fatal(err)
	}
	q.Duration = 20 * time.Minute
	large, err := oneShot(bg, e.PlanReverse, q)
	if err != nil {
		t.Fatal(err)
	}
	if large.Metrics.MaxRegion < small.Metrics.MaxRegion {
		t.Fatalf("reverse max region should grow with duration: %d -> %d",
			small.Metrics.MaxRegion, large.Metrics.MaxRegion)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
