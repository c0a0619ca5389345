package shard

import (
	"errors"
	"testing"
	"time"

	"streach/internal/core"
)

// tripTable returns an enabled 1-shard breaker table tripped open by
// recorded failures, for the state-machine tests below.
func tripTable(t *testing.T, cfg BreakerConfig) *breakerTable {
	t.Helper()
	cfg.Enabled = true
	tab := newBreakerTable(1, cfg)
	for i := 0; i < tab.config().MinSamples; i++ {
		tab.record(0, false, false)
	}
	if got := tab.state(0); got != BreakerOpen {
		t.Fatalf("breaker did not trip: state = %v", got)
	}
	return tab
}

func TestBreakerDefaults(t *testing.T) {
	cfg := BreakerConfig{Enabled: true}.withDefaults()
	if cfg.Window != 16 || cfg.FailureRatio != 0.5 || cfg.MinSamples != 4 || cfg.Cooldown != 2*time.Second {
		t.Fatalf("defaults = %+v", cfg)
	}
	// MinSamples can never exceed the window it is counted over.
	cfg = BreakerConfig{Window: 3, MinSamples: 10}.withDefaults()
	if cfg.MinSamples != 3 {
		t.Fatalf("MinSamples = %d, want clamped to window 3", cfg.MinSamples)
	}
}

// TestBreakerTripAndShortCircuit: failures at the configured ratio trip
// the breaker open; while open (inside the cooldown) every call is
// rejected and counted as a short-circuit.
func TestBreakerTripAndShortCircuit(t *testing.T) {
	tab := newBreakerTable(1, BreakerConfig{Enabled: true, Window: 8, MinSamples: 4, Cooldown: time.Hour})
	// 2 ok + 1 fail: 3 samples, below MinSamples — must not trip.
	tab.record(0, true, false)
	tab.record(0, true, false)
	tab.record(0, false, false)
	if got := tab.state(0); got != BreakerClosed {
		t.Fatalf("tripped below MinSamples: %v", got)
	}
	// Fourth sample makes 2/4 = 0.5 >= default ratio: trips.
	tab.record(0, false, false)
	if got := tab.state(0); got != BreakerOpen {
		t.Fatalf("state = %v, want open at ratio 0.5", got)
	}
	for i := 0; i < 3; i++ {
		if ok, _ := tab.allow(0); ok {
			t.Fatal("open breaker admitted a call inside the cooldown")
		}
	}
	opens, shorts := tab.counters()
	if opens != 1 || shorts != 3 {
		t.Fatalf("counters = (%d opens, %d shorts), want (1, 3)", opens, shorts)
	}
}

// TestBreakerHalfOpenProbeCloses: past the cooldown exactly one probe
// is admitted (concurrent calls still short-circuit); a successful
// probe closes the breaker and forgets the sick window.
func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	tab := tripTable(t, BreakerConfig{Cooldown: 5 * time.Millisecond})
	time.Sleep(10 * time.Millisecond)
	ok, probe := tab.allow(0)
	if !ok || !probe {
		t.Fatalf("post-cooldown allow = (%v, %v), want probe grant", ok, probe)
	}
	if got := tab.state(0); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half_open", got)
	}
	// The probe slot is single-occupancy.
	if ok, _ := tab.allow(0); ok {
		t.Fatal("second call admitted while a probe is in flight")
	}
	tab.record(0, true, true)
	if got := tab.state(0); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	// The pre-trip window of failures is gone: a single new failure must
	// not re-trip on stale outcomes.
	tab.record(0, false, false)
	if got := tab.state(0); got != BreakerClosed {
		t.Fatalf("stale window survived the close: %v", got)
	}
}

// TestBreakerProbeFailureReopens: a failed probe re-opens the breaker
// for another full cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	tab := tripTable(t, BreakerConfig{Cooldown: 5 * time.Millisecond})
	time.Sleep(10 * time.Millisecond)
	if ok, probe := tab.allow(0); !ok || !probe {
		t.Fatalf("probe not granted: (%v, %v)", ok, probe)
	}
	tab.record(0, false, true)
	if got := tab.state(0); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if ok, _ := tab.allow(0); ok {
		t.Fatal("re-opened breaker admitted a call before the new cooldown")
	}
	if opens, _ := tab.counters(); opens != 2 {
		t.Fatalf("opens = %d, want 2 (trip + failed probe)", opens)
	}
}

// TestBreakerCancelReleasesProbeSlot: a probe abandoned by collateral
// cancellation frees the slot — otherwise one cancelled probe would
// wedge the breaker half-open forever.
func TestBreakerCancelReleasesProbeSlot(t *testing.T) {
	tab := tripTable(t, BreakerConfig{Cooldown: 5 * time.Millisecond})
	time.Sleep(10 * time.Millisecond)
	if ok, probe := tab.allow(0); !ok || !probe {
		t.Fatalf("probe not granted: (%v, %v)", ok, probe)
	}
	tab.cancel(0, true)
	ok, probe := tab.allow(0)
	if !ok || !probe {
		t.Fatalf("allow after cancelled probe = (%v, %v), want a fresh probe grant", ok, probe)
	}
	// A non-probe cancel is a no-op on the slot.
	tab.cancel(0, false)
	if ok, _ := tab.allow(0); ok {
		t.Fatal("non-probe cancel released the probe slot")
	}
}

// TestBreakerConfigureResets: reconfiguring resets every breaker to
// closed with an empty window — outcomes judged under old thresholds
// don't carry over.
func TestBreakerConfigureResets(t *testing.T) {
	tab := tripTable(t, BreakerConfig{Cooldown: time.Hour})
	tab.configure(BreakerConfig{Enabled: true, Cooldown: time.Hour})
	if got := tab.state(0); got != BreakerClosed {
		t.Fatalf("state after configure = %v, want closed", got)
	}
	// 1 failure in 4 fresh outcomes stays under the 0.5 ratio; on top of
	// the 4 pre-configure failures it would be 5 in 8 and trip.
	for _, ok := range []bool{true, true, true, false} {
		tab.record(0, ok, false)
	}
	if got := tab.state(0); got != BreakerClosed {
		t.Fatalf("window survived configure: state = %v", got)
	}
}

// TestClusterBreakerShortCircuitsAndRecovers is the cluster-level
// acceptance flow: a repeatedly failing shard trips its breaker, open
// queries short-circuit into the degraded path without touching the
// shard, and once the fault clears the half-open probe re-admits it —
// with the healed answer bit-identical to unsharded execution.
func TestClusterBreakerShortCircuitsAndRecovers(t *testing.T) {
	f := getFixture(t)
	q := core.Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	atProcs(t, func(t *testing.T) {
		c, err := NewCluster(f.st, f.con, core.Options{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		balancedAfter(t, c)
		c.ConfigureBreakers(BreakerConfig{
			Enabled: true, Window: 8, FailureRatio: 0.5, MinSamples: 2, Cooldown: 50 * time.Millisecond,
		})
		cp := c.WithPartialResults(true)
		if err := c.InjectFault(1, FaultError); err != nil {
			t.Fatal(err)
		}

		// Fail until the breaker trips (scatter + gather both record).
		query := func() *Degraded {
			t.Helper()
			pl, err := cp.PlanReach(bg, q)
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()
			if _, err := pl.ResultAt(bg, 0.2); err != nil {
				t.Fatal(err)
			}
			return pl.Degraded()
		}
		for i := 0; i < 10 && c.BreakerState(1) != BreakerOpen; i++ {
			query()
		}
		if got := c.BreakerState(1); got != BreakerOpen {
			t.Fatalf("breaker never opened under sustained failures: %v", got)
		}
		failuresAtTrip := c.Health()[1].Failures

		// Open: the next query short-circuits shard 1 — degraded answer, no
		// new health failures (the shard was never called), counters move.
		d := query()
		if d == nil || len(d.MissingShards) != 1 || d.MissingShards[0] != 1 {
			t.Fatalf("short-circuited query degradation = %+v, want missing shard 1", d)
		}
		if got := c.Health()[1].Failures; got != failuresAtTrip {
			t.Fatalf("short-circuit recorded health failures: %d -> %d", failuresAtTrip, got)
		}
		r := c.Resilience()
		if r.BreakerOpens == 0 || r.BreakerShortCircuits == 0 {
			t.Fatalf("resilience counters = %+v", r)
		}
		if h := c.Health()[1]; h.Breaker != BreakerOpen {
			t.Fatalf("health breaker state = %v, want open", h.Breaker)
		}

		// Fault cleared + cooldown elapsed: the half-open probe heals the
		// shard and the answer is complete and bit-identical to unsharded.
		if err := c.InjectFault(1, FaultNone); err != nil {
			t.Fatal(err)
		}
		time.Sleep(60 * time.Millisecond)
		if d := query(); d != nil {
			t.Fatalf("post-recovery query still degraded: %+v", d)
		}
		if got := c.BreakerState(1); got != BreakerClosed {
			t.Fatalf("breaker after successful probe = %v, want closed", got)
		}
		eng, err := core.NewEngine(f.st, f.con, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := cp.PlanReach(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		defer pl.Close()
		got, err := pl.ResultAt(bg, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		qq := q
		qq.Prob = 0.2
		want, err := eng.SQMB(bg, qq)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "healed", got, want)
	})
}

// TestClusterBreakerFailFast: in default (fail-fast) mode an open
// breaker is an immediate typed ShardError carrying ErrBreakerOpen —
// the query does not pay the sick shard's budget.
func TestClusterBreakerFailFast(t *testing.T) {
	f := getFixture(t)
	q := core.Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	atProcs(t, func(t *testing.T) {
		c, err := NewCluster(f.st, f.con, core.Options{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		balancedAfter(t, c)
		c.ConfigureBreakers(BreakerConfig{
			Enabled: true, Window: 8, FailureRatio: 0.5, MinSamples: 2, Cooldown: time.Hour,
		})
		if err := c.InjectFault(1, FaultError); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10 && c.BreakerState(1) != BreakerOpen; i++ {
			if pl, err := c.PlanReach(bg, q); err == nil {
				pl.Close()
			}
		}
		if got := c.BreakerState(1); got != BreakerOpen {
			t.Fatalf("breaker never opened: %v", got)
		}
		// Even with the fault cleared, the hour-long cooldown keeps the
		// breaker open: proof the rejection comes from the breaker, not the
		// fault.
		if err := c.InjectFault(1, FaultNone); err != nil {
			t.Fatal(err)
		}
		began := time.Now()
		pl, err := c.PlanReach(bg, q)
		if err == nil {
			pl.Close()
			t.Fatal("fail-fast plan succeeded through an open breaker")
		}
		if !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("error = %v, want ErrBreakerOpen cause", err)
		}
		if elapsed := time.Since(began); elapsed > time.Second {
			t.Fatalf("short-circuit took %v; it must not pay the shard's cost", elapsed)
		}
	})
}
