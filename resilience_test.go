package streach

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestFacadeBreakerTripAndRecovery pins the facade breaker contract: a
// repeatedly failing shard trips its breaker (visible in ShardHealth
// and ResilienceStats), open-breaker queries short-circuit into the
// degraded path, and once the fault clears the half-open probe heals
// the system back to answers bit-identical to the healthy baseline.
func TestFacadeBreakerTripAndRecovery(t *testing.T) {
	// Breakers configured before the system shards: Shard must carry them
	// into the new cluster.
	s := variant(t, vcfg{planCache: -1})
	s.ConfigureBreakers(BreakerConfig{
		Enabled: true, Window: 8, FailureRatio: 0.5, MinSamples: 2, Cooldown: 50 * time.Millisecond,
	})
	if err := s.Shard(4); err != nil {
		t.Fatal(err)
	}
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
	if d := diffRegion(healed, healthy); d != "" {
		t.Fatalf("healed answer: %s", d)
	}
	assertScratchBalanced(t, s, "after breaker trip and recovery")
}

// TestShardSettersOrderFree: SetShardBudget and ConfigureBreakers
// configure the same cluster whether they run before or after the
// system shards, or while other goroutines keep re-sharding it, and
// clearing the budget takes effect on the live cluster — a hung shard is
// then waited for, not skipped.
func TestShardSettersOrderFree(t *testing.T) {
	base := smallSystem(t)
	req := ReachRequest(testQuery(base).Locations[0], 11*time.Hour, 10*time.Minute, 0.2)
	brk := BreakerConfig{Enabled: true, Window: 8, Cooldown: time.Minute}
	set := func(s *System) {
		s.SetShardBudget(50 * time.Millisecond)
		s.ConfigureBreakers(brk)
	}
	shard := func(s *System, k int) {
		if err := s.Shard(k); err != nil {
			t.Error(err)
		}
	}
	systems := map[string]*System{}
	for _, order := range []string{"set-then-shard", "shard-then-set", "concurrent"} {
		s := variant(t, vcfg{planCache: -1})
		switch order {
		case "set-then-shard":
			set(s)
			shard(s, 4)
		case "shard-then-set":
			shard(s, 4)
			set(s)
		case "concurrent":
			// Setters race re-sharding into 2, 4 and 1 shards; a setter
			// that stored a view of the layout it loaded would undo a
			// re-shard landing in between.
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						set(s)
					}
				}()
				go func() {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						shard(s, 2)
						shard(s, 4)
						shard(s, 1)
					}
				}()
			}
			wg.Wait()
			shard(s, 4)
		}
		if got := s.Shards(); got != 4 {
			t.Fatalf("%s: %d shards, want 4", order, got)
		}
		if err := s.InjectShardFault(1, ShardFaultHang); err != nil {
			t.Fatal(err)
		}
		systems[order] = s
	}

	want := systems["set-then-shard"].cluster.Load().BreakerConfigured()
	for name, s := range systems {
		if got := s.cluster.Load().BreakerConfigured(); got != want || !got.Enabled {
			t.Fatalf("%s: breakers = %+v, want %+v", name, got, want)
		}
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
