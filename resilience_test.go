package streach

import (
	"context"
	"testing"
	"time"
)

// resilienceSystem builds a dedicated 4-shard system with the overload
// self-protection knobs set before it shards (so Shard must carry them
// into the new cluster); injected faults and tripped breakers never leak
// into the shared fixtures.
func resilienceSystem(t *testing.T, brk BreakerConfig, hedge HedgeConfig) *System {
	t.Helper()
	base := smallSystem(t)
	idx := DefaultIndexConfig()
	idx.PlanCache = -1
	s, err := NewSystemFromData(base.Network(), base.Dataset(), idx)
	if err != nil {
		t.Fatal(err)
	}
	s.ConfigureBreakers(brk)
	s.SetHedging(hedge)
	if err := s.Shard(4); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFacadeBreakerTripAndRecovery pins the facade breaker contract: a
// repeatedly failing shard trips its breaker (visible in ShardHealth
// and ResilienceStats), open-breaker queries short-circuit into the
// degraded path, and once the fault clears the half-open probe heals
// the system back to answers bit-identical to the healthy baseline.
func TestFacadeBreakerTripAndRecovery(t *testing.T) {
	s := resilienceSystem(t, BreakerConfig{
		Enabled: true, Window: 8, FailureRatio: 0.5, MinSamples: 2, Cooldown: 50 * time.Millisecond,
	}, HedgeConfig{})
	defer clearChaos(t, s)
	q := testQuery(s)
	req := ReachRequest(q.Locations[0], 11*time.Hour, 10*time.Minute, 0.2)
	ctx := context.Background()

	healthy, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.InjectShardFault(1, ShardFaultError); err != nil {
		t.Fatal(err)
	}
	opened := false
	for i := 0; i < 10 && !opened; i++ {
		if _, err := s.Do(ctx, req, WithPartialResults(true)); err != nil {
			t.Fatalf("partial-mode Do failed outright: %v", err)
		}
		opened = s.ShardHealth()[1].Breaker == "open"
	}
	if !opened {
		t.Fatal("breaker never opened under sustained shard failures")
	}

	// Open breaker: the shard is short-circuited, not called — the
	// answer is still served degraded and the counters move.
	got, err := s.Do(ctx, req, WithPartialResults(true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded == nil || len(got.Degraded.MissingShards) != 1 || got.Degraded.MissingShards[0] != 1 {
		t.Fatalf("short-circuited answer degradation = %+v, want missing shard 1", got.Degraded)
	}
	rs := s.ResilienceStats()
	if rs.BreakerOpens == 0 || rs.BreakerShortCircuits == 0 {
		t.Fatalf("resilience stats = %+v, want opens and short-circuits", rs)
	}

	// Fault cleared + cooldown elapsed: the probe closes the breaker and
	// the next answer is complete and bit-identical to the baseline.
	clearChaos(t, s)
	time.Sleep(60 * time.Millisecond)
	healed, err := s.Do(ctx, req, WithPartialResults(true))
	if err != nil {
		t.Fatal(err)
	}
	if healed.Degraded != nil {
		t.Fatalf("healed answer still degraded: %+v", healed.Degraded)
	}
	if state := s.ShardHealth()[1].Breaker; state != "closed" {
		t.Fatalf("breaker after recovery = %q, want closed", state)
	}
	sameRegion(t, "healed", healed, healthy)
	assertScratchBalanced(t, s, "after breaker trip and recovery")
}

// TestFacadeHedgedQueriesBitIdentical pins hedge determinism end to
// end: with an aggressive trigger every scatter slice races a hedge,
// and whichever attempt commits, answers are bit-identical to an
// unhedged system's — while the losing attempts are cancelled, reaped
// (no goroutine growth; run under -race in CI), and return all their
// pooled scratch.
func TestFacadeHedgedQueriesBitIdentical(t *testing.T) {
	q := testQuery(smallSystem(t))
	req := ReachRequest(q.Locations[0], 11*time.Hour, 10*time.Minute, 0.2)
	ctx := context.Background()

	plain := resilienceSystem(t, BreakerConfig{}, HedgeConfig{})
	baseline, err := plain.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	before := goroutineCount()
	hedged := resilienceSystem(t, BreakerConfig{}, HedgeConfig{
		Enabled: true, Trigger: time.Nanosecond, MaxOutstanding: 4,
	})
	for round := 0; round < 3; round++ {
		got, err := hedged.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		sameRegion(t, "hedged", got, baseline)
	}
	if rs := hedged.ResilienceStats(); rs.HedgesLaunched == 0 {
		t.Fatalf("resilience stats = %+v, want launched hedges", rs)
	}
	assertScratchBalanced(t, hedged, "after hedged queries")
	assertNoGoroutineGrowth(t, before)
}

// TestShardSettersOrderFree: SetShardBudget, ConfigureBreakers and
// SetHedging configure the same cluster whether they run before or after
// the system shards, and clearing the budget takes effect on the live
// cluster — a hung shard is then waited for, not skipped.
func TestShardSettersOrderFree(t *testing.T) {
	base := smallSystem(t)
	req := ReachRequest(testQuery(base).Locations[0], 11*time.Hour, 10*time.Minute, 0.2)
	brk := BreakerConfig{Enabled: true, Window: 8, Cooldown: time.Minute}
	hedge := HedgeConfig{Enabled: true, Trigger: time.Hour}
	set := func(s *System) {
		s.SetShardBudget(50 * time.Millisecond)
		s.ConfigureBreakers(brk)
		s.SetHedging(hedge)
	}
	systems := map[string]*System{}
	for _, order := range []struct {
		name     string
		setFirst bool
	}{{"set-then-shard", true}, {"shard-then-set", false}} {
		idx := DefaultIndexConfig()
		idx.PlanCache = -1
		s, err := NewSystemFromData(base.Network(), base.Dataset(), idx)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if order.setFirst {
			set(s)
		}
		if err := s.Shard(4); err != nil {
			t.Fatal(err)
		}
		if !order.setFirst {
			set(s)
		}
		if err := s.InjectShardFault(1, ShardFaultHang); err != nil {
			t.Fatal(err)
		}
		systems[order.name] = s
	}

	before, after := systems["set-then-shard"].cluster.Load(), systems["shard-then-set"].cluster.Load()
	if got, want := before.BreakerConfigured(), after.BreakerConfigured(); got != want || !got.Enabled {
		t.Fatalf("breakers differ by setter order: %+v vs %+v", got, want)
	}
	if got, want := before.HedgeConfigured(), after.HedgeConfigured(); got != want || !got.Enabled {
		t.Fatalf("hedging differs by setter order: %+v vs %+v", got, want)
	}
	for name, s := range systems {
		// The budget bounds the hung shard: a partial answer without it.
		got, err := s.Do(context.Background(), req, WithPartialResults(true))
		if err != nil {
			t.Fatalf("%s: budgeted partial query failed: %v", name, err)
		}
		if got.Degraded == nil || len(got.Degraded.MissingShards) != 1 || got.Degraded.MissingShards[0] != 1 {
			t.Fatalf("%s: degradation = %+v, want missing shard 1", name, got.Degraded)
		}
		// Cleared, the hung shard holds the query until its deadline.
		s.SetShardBudget(0)
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		_, err = s.Do(ctx, req, WithPartialResults(true))
		cancel()
		if err == nil {
			t.Fatalf("%s: SetShardBudget(0) left the live cluster budgeted", name)
		}
		if CodeOf(err) != Timeout {
			t.Fatalf("%s: unbudgeted hang = %v, want a Timeout at the query deadline", name, err)
		}
	}
}
