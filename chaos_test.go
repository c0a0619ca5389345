package streach

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// chaosCfg is the 4-shard system a fault-injection test builds for
// itself: its faults and health records stay with that test.
var chaosCfg = vcfg{planCache: -1, shards: 4}

func clearChaos(t *testing.T, s *System) {
	t.Helper()
	for sh := 0; sh < s.Shards(); sh++ {
		if err := s.InjectShardFault(sh, ShardFaultNone); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosTypedErrorCodes pins the facade acceptance criterion: with 1
// of 4 shards injected to fail, default-mode Do returns a
// streach.Error whose code is ShardFailure (hang variant, bounded by a
// shard budget: Timeout), and no goroutines leak across the failures.
func TestChaosTypedErrorCodes(t *testing.T) {
	s := variant(t, chaosCfg)
	req := ReachRequest(testQuery(s).Locations[0],
		11*time.Hour, 10*time.Minute, 0.2)

	variants := []struct {
		fault ShardFault
		opts  []Option
		want  ErrorCode
	}{
		{ShardFaultError, nil, ShardFailure},
		{ShardFaultPanic, nil, ShardFailure},
		{ShardFaultHang, []Option{WithShardBudget(50 * time.Millisecond)}, Timeout},
	}
	before := goroutineCount()
	for _, v := range variants {
		t.Run(v.fault.String(), func(t *testing.T) {
			if err := s.InjectShardFault(1, v.fault); err != nil {
				t.Fatal(err)
			}
			defer clearChaos(t, s)
			_, err := s.Do(context.Background(), req, v.opts...)
			if err == nil {
				t.Fatal("Do succeeded despite injected fault")
			}
			var te *Error
			if !errors.As(err, &te) {
				t.Fatalf("error %v (%T) is not a *streach.Error", err, err)
			}
			if te.Code != v.want {
				t.Fatalf("code = %v (%v), want %v", te.Code, err, v.want)
			}
			if CodeOf(err) != v.want {
				t.Fatalf("CodeOf = %v, want %v", CodeOf(err), v.want)
			}
		})
	}
	assertNoGoroutineGrowth(t, before)

	// Health records the failures and heals visibly.
	h := s.ShardHealth()
	if len(h) != 4 {
		t.Fatalf("health entries = %d, want 4", len(h))
	}
	if h[1].Failures == 0 || !h[1].Degraded() && h[1].LastError == "" {
		t.Fatalf("shard 1 health = %+v, want recorded failures", h[1])
	}
	if h[0].Failures != 0 {
		t.Fatalf("shard 0 health = %+v, want clean", h[0])
	}
}

// TestChaosPartialResults pins the degraded path at the facade: the
// same injected faults under WithPartialResults return an answer whose
// Degraded metadata names the lost shard, is a strict subset of the
// healthy answer, and heals back to bit-identical once cleared.
func TestChaosPartialResults(t *testing.T) {
	s := variant(t, chaosCfg)
	req := ReachRequest(testQuery(s).Locations[0],
		11*time.Hour, 10*time.Minute, 0.2)

	healthy, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Degraded != nil {
		t.Fatal("healthy answer reported degradation")
	}

	healthySet := map[int32]bool{}
	for _, id := range healthy.SegmentIDs {
		healthySet[id] = true
	}

	for _, fault := range []ShardFault{ShardFaultError, ShardFaultPanic} {
		t.Run(fault.String(), func(t *testing.T) {
			// Fail each shard in turn: every degraded answer must be a
			// subset of the healthy one, and at least one shard must own
			// part of this query's region, shrinking the answer.
			shrank := false
			for sh := 0; sh < s.Shards(); sh++ {
				if err := s.InjectShardFault(sh, fault); err != nil {
					t.Fatal(err)
				}
				got, err := s.Do(context.Background(), req, WithPartialResults(true))
				clearChaos(t, s)
				if err != nil {
					t.Fatalf("shard %d: partial-mode Do failed outright: %v", sh, err)
				}
				d := got.Degraded
				if d == nil {
					t.Fatalf("shard %d: no Degraded record on a lossy answer", sh)
				}
				if len(d.MissingShards) != 1 || d.MissingShards[0] != sh {
					t.Fatalf("shard %d: missing shards = %v", sh, d.MissingShards)
				}
				if d.Coverage <= 0 || d.Coverage >= 1 {
					t.Fatalf("shard %d: coverage = %v, want in (0, 1)", sh, d.Coverage)
				}
				want := "shard " + string(rune('0'+sh))
				if len(d.Causes) != 1 || !strings.Contains(d.Causes[0].Error(), want) {
					t.Fatalf("shard %d: causes = %v", sh, d.Causes)
				}
				for _, id := range got.SegmentIDs {
					if !healthySet[id] {
						t.Fatalf("shard %d: degraded answer contains segment %d absent from the healthy answer", sh, id)
					}
				}
				if len(got.SegmentIDs) < len(healthy.SegmentIDs) {
					shrank = true
				}
			}
			if !shrank {
				t.Fatal("no single-shard failure shrank the answer: injection had no observable effect")
			}

			// Cleared: bit-identical to the offline build again.
			checkOracle(t, reference(t), serial(s), requestMatrix(s, 11*time.Hour).smoke)
		})
	}
}

// TestChaosUnshardedInjectionRejected: fault injection needs shards.
func TestChaosUnshardedInjectionRejected(t *testing.T) {
	s := smallSystem(t)
	err := s.InjectShardFault(0, ShardFaultError)
	if err == nil {
		t.Fatal("InjectShardFault on an unsharded system should fail")
	}
	if CodeOf(err) != InvalidRequest {
		t.Fatalf("code = %v, want InvalidRequest", CodeOf(err))
	}
}

// goroutineCount samples runtime.NumGoroutine after a settle pause, so
// short-lived runtime helpers do not count.
func goroutineCount() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// assertNoGoroutineGrowth fails (with a full stack dump) if the
// goroutine count has not settled back to the baseline.
func assertNoGoroutineGrowth(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var now int
	for {
		now = runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines grew %d -> %d; stacks:\n%s", before, now, buf[:n])
}
