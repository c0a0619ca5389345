package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"streach/internal/core"
	"streach/internal/xerr"
)

// faultVariants are the three injected failure shapes of the acceptance
// criterion. The hang variant needs a per-shard budget to become a
// bounded failure instead of a stall.
var faultVariants = []struct {
	name   string
	kind   FaultKind
	budget time.Duration
	want   xerr.Kind
}{
	{"error", FaultError, 0, xerr.KindShardFailure},
	{"panic", FaultPanic, 0, xerr.KindShardFailure},
	{"hang", FaultHang, 50 * time.Millisecond, xerr.KindTimeout},
}

// atProcs runs body once at GOMAXPROCS 1, where the scatter verifies
// the admitted shards inline, and once at 2, where it fans them out.
func atProcs(t *testing.T, body func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			body(t)
		})
	}
}

// balancedAfter checks, once the test and its deferred closes are done,
// that every scratch checkout of c's engines came back — whatever the
// faults, breakers and budgets did to the queries in between.
func balancedAfter(t *testing.T, c *Cluster) {
	t.Cleanup(func() {
		for i, st := range c.ScratchStats() {
			if !st.Balanced() {
				t.Errorf("engine %d scratch unbalanced: %+v", i, st)
			}
		}
	})
}

// TestFailFastTypedErrors pins default-mode chaos behaviour: with 1 of
// 4 shards injected to fail, planning returns a typed error — shard
// failure for the error and panic shapes, timeout for a hung shard
// bounded by the per-shard budget — that unwraps to the failing shard.
func TestFailFastTypedErrors(t *testing.T) {
	f := getFixture(t)
	q := core.Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	for _, v := range faultVariants {
		t.Run(v.name, func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				c, err := NewCluster(f.st, f.con, core.Options{}, 4)
				if err != nil {
					t.Fatal(err)
				}
				balancedAfter(t, c)
				if v.budget > 0 {
					c = c.WithShardBudget(v.budget)
				}
				if err := c.InjectFault(1, v.kind); err != nil {
					t.Fatal(err)
				}
				pl, err := c.PlanReach(bg, q)
				if err == nil {
					pl.Close()
					t.Fatal("plan succeeded despite injected fault")
				}
				if got := xerr.KindOf(err); got != v.want {
					t.Fatalf("error kind = %v (%v), want %v", got, err, v.want)
				}
				var se *ShardError
				if !errors.As(err, &se) || se.Shard != 1 {
					t.Fatalf("error %v does not unwrap to ShardError{Shard: 1}", err)
				}
				// The failure is on the shard's health record.
				h := c.Health()[1]
				if h.Failures == 0 || h.LastError == "" {
					t.Fatalf("health not recorded: %+v", h)
				}
				// Clearing the fault heals the cluster.
				if err := c.InjectFault(1, FaultNone); err != nil {
					t.Fatal(err)
				}
				pl, err = c.PlanReach(bg, q)
				if err != nil {
					t.Fatalf("plan after clearing fault: %v", err)
				}
				if _, err := pl.ResultAt(bg, probs[0]); err != nil {
					t.Fatalf("result after clearing fault: %v", err)
				}
				pl.Close()
			})
		})
	}
}

// TestDegradedMatchesHealthyPartialMerge pins the partial-results
// acceptance criterion: with 1 of 4 shards failing under
// WithPartialResults, the degraded answer's region is bit-identical to
// core.MergeRegions over the healthy shards' partials of an unfaulted
// plan, for every failure shape at four thresholds.
func TestDegradedMatchesHealthyPartialMerge(t *testing.T) {
	f := getFixture(t)
	q := core.Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}

	// The healthy reference cluster shares the same grid partition (the
	// partitioner is deterministic over the same network and k).
	healthyC, err := NewCluster(f.st, f.con, core.Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	balancedAfter(t, healthyC)
	healthy, err := healthyC.PlanReach(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	for _, v := range faultVariants {
		t.Run(v.name, func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				c, err := NewCluster(f.st, f.con, core.Options{}, 4)
				if err != nil {
					t.Fatal(err)
				}
				balancedAfter(t, c)
				c = c.WithPartialResults(true)
				if v.budget > 0 {
					c = c.WithShardBudget(v.budget)
				}
				if err := c.InjectFault(1, v.kind); err != nil {
					t.Fatal(err)
				}
				pl, err := c.PlanReach(bg, q)
				if err != nil {
					t.Fatalf("partial-mode plan failed outright: %v", err)
				}
				defer pl.Close()
				for _, prob := range probs {
					got, err := pl.ResultAt(bg, prob)
					if err != nil {
						t.Fatalf("prob %v: %v", prob, err)
					}
					d := pl.Degraded()
					if d == nil {
						t.Fatalf("prob %v: no Degraded record", prob)
					}
					if len(d.MissingShards) != 1 || d.MissingShards[0] != 1 {
						t.Fatalf("prob %v: missing shards %v, want [1]", prob, d.MissingShards)
					}
					if d.Coverage <= 0 || d.Coverage >= 1 {
						t.Fatalf("prob %v: coverage %v, want in (0, 1)", prob, d.Coverage)
					}
					if len(d.Failures) != 1 || d.Failures[0].Shard != 1 {
						t.Fatalf("prob %v: failures %v", prob, d.Failures)
					}
					// Reference: the healthy plan's partials over the three
					// surviving shards, merged exactly as the gather does.
					var parts []*core.Result
					for sh := 0; sh < 4; sh++ {
						if sh == 1 {
							continue
						}
						part, err := healthy.p.PartialAt(bg, prob, healthyC.part.Owned(sh))
						if err != nil {
							t.Fatal(err)
						}
						parts = append(parts, part)
					}
					want := core.MergeRegions(true, parts...)
					if len(got.Segments) == 0 {
						t.Fatalf("prob %v: degraded answer is empty", prob)
					}
					sameRegionContent(t, v.name, got, want)
				}
			})
		})
	}
}

// sameRegionContent asserts the merged region content — segments and
// per-segment probabilities — is bit-identical. Finalize-stamped
// attribution (starts, wall-clock metrics) is excluded: the reference
// merge is deliberately left unfinalized.
func sameRegionContent(t *testing.T, name string, got, want *core.Result) {
	t.Helper()
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("%s: segments differ (%d vs %d)", name, len(got.Segments), len(want.Segments))
	}
	for i, s := range want.Segments {
		if got.Segments[i] != s {
			t.Fatalf("%s: segment[%d] = %d, want %d", name, i, got.Segments[i], s)
		}
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
}

// TestDegradedGatherFault pins the gather-side hook: a fault injected
// after a healthy scatter degrades ResultAt (partial mode) or fails it
// typed (fail-fast), so long-lived plans still honour injection.
func TestDegradedGatherFault(t *testing.T) {
	f := getFixture(t)
	q := core.Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	atProcs(t, func(t *testing.T) {
		c, err := NewCluster(f.st, f.con, core.Options{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		balancedAfter(t, c)
		cp := c.WithPartialResults(true)
		pl, err := cp.PlanReach(bg, q) // healthy scatter
		if err != nil {
			t.Fatal(err)
		}
		defer pl.Close()
		if _, err := pl.ResultAt(bg, probs[1]); err != nil {
			t.Fatal(err)
		}
		if pl.Degraded() != nil {
			t.Fatal("healthy gather reported degradation")
		}
		if err := c.InjectFault(2, FaultError); err != nil { // via the base view: shared table
			t.Fatal(err)
		}
		if _, err := pl.ResultAt(bg, probs[1]); err != nil {
			t.Fatalf("partial-mode gather failed outright: %v", err)
		}
		d := pl.Degraded()
		if d == nil || len(d.MissingShards) != 1 || d.MissingShards[0] != 2 {
			t.Fatalf("gather degradation = %+v, want missing shard 2", d)
		}

		// Fail-fast view of the same cluster: typed error.
		plFF, err := c.PlanReach(bg, q)
		if err == nil {
			// Scatter may or may not route work to shard 2; the gather must
			// fail either way.
			_, rerr := plFF.ResultAt(bg, probs[1])
			plFF.Close()
			err = rerr
		}
		if xerr.KindOf(err) != xerr.KindShardFailure {
			t.Fatalf("fail-fast error = %v, want shard-failure kind", err)
		}
	})
}

// TestPartialModeCancellation: a caller cancellation in partial mode is
// still a cancellation, not a degraded answer built from zero shards.
func TestPartialModeCancellation(t *testing.T) {
	f := getFixture(t)
	q := core.Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	atProcs(t, func(t *testing.T) {
		c, err := NewCluster(f.st, f.con, core.Options{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		balancedAfter(t, c)
		c = c.WithPartialResults(true)
		ctx, cancel := context.WithCancel(bg)
		cancel()
		if _, err := c.PlanReach(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled plan error = %v, want context.Canceled", err)
		}
	})
}
