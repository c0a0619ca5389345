package streach

import (
	"context"
	"testing"
	"time"
)

// resilienceSystem builds a dedicated 4-shard system with the overload
// self-protection knobs wired through IndexConfig — the configuration
// path production deployments use — so injected faults and tripped
// breakers never leak into the shared fixtures.
func resilienceSystem(t *testing.T, brk BreakerConfig, hedge HedgeConfig) *System {
	t.Helper()
	base := smallSystem(t)
	idx := DefaultIndexConfig()
	idx.PlanCache = -1
	idx.Shards = 4
	idx.Breaker = brk
	idx.Hedge = hedge
	s, err := NewSystemFromData(base.Network(), base.Dataset(), idx)
	if err != nil {
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
