package streach

import (
	"context"
	"sync"
	"testing"
	"time"
)

var (
	slotShardedOnce sync.Once
	slotShardedSys  *System
	hybridSys       *System
	slotShardedErr  error
)

// slotShardedSystems builds the temporal-sharding fixtures over the
// shared world: a pure temporal K=4 system (one spatial shard, four
// slot rows) and a hybrid 2 grid x 2 slots system. Plan cache off so
// every Do really runs the routed path.
func slotShardedSystems(t *testing.T) (pure, hybrid *System) {
	t.Helper()
	base := smallSystem(t)
	slotShardedOnce.Do(func() {
		slotShardedSys, slotShardedErr = slotShardedSystem(base, 1, 4)
		if slotShardedErr != nil {
			return
		}
		hybridSys, slotShardedErr = slotShardedSystem(base, 2, 2)
	})
	if slotShardedErr != nil {
		t.Fatal(slotShardedErr)
	}
	return slotShardedSys, hybridSys
}

// slotShardedSystem builds a system over base's world, plan cache off,
// sharded gridK x slotK.
func slotShardedSystem(base *System, gridK, slotK int) (*System, error) {
	idx := DefaultIndexConfig()
	idx.PlanCache = -1
	sys, err := NewSystemFromData(base.Network(), base.Dataset(), idx)
	if err != nil {
		return nil, err
	}
	return sys, sys.ShardSlots(gridK, slotK)
}

// TestSlotShardedEquivalence pins the tentpole acceptance criterion:
// slot-sharded (pure temporal and hybrid grid x slots) answers every
// request kind and algorithm bit-identically to unsharded execution at
// four thresholds. K=1 (the trivial partition) is covered by Shard's
// delegation test below.
func TestSlotShardedEquivalence(t *testing.T) {
	base := smallSystem(t)
	pure, hybrid := slotShardedSystems(t)
	if pure.Shards() != 4 || pure.SlotShards() != 4 {
		t.Fatalf("pure temporal: Shards=%d SlotShards=%d, want 4/4", pure.Shards(), pure.SlotShards())
	}
	if hybrid.Shards() != 4 || hybrid.SlotShards() != 2 {
		t.Fatalf("hybrid: Shards=%d SlotShards=%d, want 4/2", hybrid.Shards(), hybrid.SlotShards())
	}
	loc := base.BusiestLocation(11 * time.Hour)
	multi := []Location{loc, {Lat: loc.Lat + 0.01, Lng: loc.Lng + 0.01}}

	cases := []struct {
		name string
		req  Request
		opts []Option
	}{
		{"reach", ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0), nil},
		{"reach-es", ReachRequest(loc, 11*time.Hour, 8*time.Minute, 0), []Option{WithAlgorithm(AlgoExhaustive)}},
		{"reach-verifyall", ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0), []Option{WithVerifyAll(true)}},
		{"reverse", ReverseRequest(loc, 11*time.Hour, 10*time.Minute, 0), nil},
		{"reverse-es", ReverseRequest(loc, 11*time.Hour, 8*time.Minute, 0), []Option{WithAlgorithm(AlgoExhaustive)}},
		{"multi", MultiRequest(multi, 11*time.Hour, 10*time.Minute, 0), nil},
		{"multi-seq", MultiRequest(multi, 11*time.Hour, 10*time.Minute, 0), []Option{WithAlgorithm(AlgoSequential)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, prob := range []float64{0.05, 0.2, 0.5, 0.9} {
				req := tc.req
				req.Prob = prob
				want, err := base.Do(context.Background(), req, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				for name, sys := range map[string]*System{"temporal": pure, "hybrid": hybrid} {
					got, err := sys.Do(context.Background(), req, tc.opts...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sameRegion(t, tc.name+"/"+name, got, want)
				}
			}
		})
	}
}

// TestSlotShardsTrivial: slotK=1 is exactly Shard(k), and ShardSlots
// with both dimensions trivial restores single-engine execution.
func TestSlotShardsTrivial(t *testing.T) {
	base := smallSystem(t)
	idx := DefaultIndexConfig()
	idx.PlanCache = -1
	sys, err := NewSystemFromData(base.Network(), base.Dataset(), idx)
	if err != nil {
		t.Fatal(err)
	}
	loc := base.BusiestLocation(11 * time.Hour)
	req := ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2)
	want, err := sys.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ShardSlots(3, 1); err != nil {
		t.Fatal(err)
	}
	if sys.Shards() != 3 || sys.SlotShards() != 1 {
		t.Fatalf("ShardSlots(3,1): Shards=%d SlotShards=%d", sys.Shards(), sys.SlotShards())
	}
	got, err := sys.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameRegion(t, "slotk1", got, want)
	if err := sys.ShardSlots(1, 1); err != nil {
		t.Fatal(err)
	}
	if sys.Shards() != 1 || sys.SlotShards() != 1 {
		t.Fatalf("ShardSlots(1,1): Shards=%d SlotShards=%d", sys.Shards(), sys.SlotShards())
	}
	got, err = sys.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameRegion(t, "unsharded-again", got, want)
}

// TestSlotShardStatsCoverage: the served slot ranges must partition the
// whole day, and hybrid ordinals must report their row's range.
func TestSlotShardStatsCoverage(t *testing.T) {
	pure, hybrid := slotShardedSystems(t)
	numSlots := 24 * 3600 / pure.Stats().SlotSeconds
	next := 0
	for _, st := range pure.ShardStats() {
		if st.SlotLo != next || st.SlotHi < st.SlotLo {
			t.Fatalf("shard %d serves slots [%d,%d], expected to start at %d", st.Shard, st.SlotLo, st.SlotHi, next)
		}
		next = st.SlotHi + 1
	}
	if next != numSlots {
		t.Fatalf("served ranges end at %d, want %d", next, numSlots)
	}
	// Hybrid: the two grid shards of one row share its slot range.
	stats := hybrid.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("hybrid ShardStats len = %d, want 4", len(stats))
	}
	for row := 0; row < 2; row++ {
		a, b := stats[row*2], stats[row*2+1]
		if a.SlotLo != b.SlotLo || a.SlotHi != b.SlotHi {
			t.Fatalf("row %d grid shards disagree on slot range: [%d,%d] vs [%d,%d]",
				row, a.SlotLo, a.SlotHi, b.SlotLo, b.SlotHi)
		}
	}
}

// TestSlotWindowPruning pins the scatter-pruning contract: a query
// whose window lies entirely inside one row's served range must verify
// only on that row's shards — the other rows see no work at all.
func TestSlotWindowPruning(t *testing.T) {
	base := smallSystem(t)
	sys, err := slotShardedSystem(base, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	stats := sys.ShardStats()
	slotSec := sys.Stats().SlotSeconds
	// Aim a short window at the middle of row 2's served range.
	target := 2
	mid := (stats[target].SlotLo + stats[target].SlotHi) / 2
	start := time.Duration(mid*slotSec) * time.Second
	loc := base.BusiestLocation(start)
	if _, err := sys.Do(context.Background(), ReachRequest(loc, start, 5*time.Minute, 0.2)); err != nil {
		t.Fatal(err)
	}
	for _, st := range sys.ShardStats() {
		if st.Shard == target {
			if st.CandidatesVerified == 0 {
				t.Fatalf("serving row %d verified nothing", target)
			}
			continue
		}
		if st.CandidatesVerified != 0 {
			t.Fatalf("shard %d (slots [%d,%d]) verified %d candidates for a window owned by row %d",
				st.Shard, st.SlotLo, st.SlotHi, st.CandidatesVerified, target)
		}
	}
	if n := sys.PlansSlotFallback(); n != 0 {
		t.Fatalf("in-range window fell back %d times", n)
	}
}

// TestSlotWindowFallback: a window outgrowing its row's held range runs
// unsharded — counted, and still bit-identical.
func TestSlotWindowFallback(t *testing.T) {
	base := smallSystem(t)
	sys, err := slotShardedSystem(base, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	stats := sys.ShardStats()
	slotSec := sys.Stats().SlotSeconds
	// Start at the last served slot of row 0 with a window reaching well
	// past the one-hour overhang: must route to fallback.
	start := time.Duration(stats[0].SlotHi*slotSec) * time.Second
	dur := 90 * time.Minute
	loc := base.BusiestLocation(start)
	req := ReachRequest(loc, start, dur, 0.2)
	want, err := base.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameRegion(t, "fallback", got, want)
	if n := sys.PlansSlotFallback(); n != 1 {
		t.Fatalf("PlansSlotFallback = %d, want 1", n)
	}
}

// TestOpenSystemSlotSharded: a reopened save directory slot-shards and
// answers bit-identically.
func TestOpenSystemSlotSharded(t *testing.T) {
	base := smallSystem(t)
	dir := t.TempDir()
	if err := base.Save(dir); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenSystem(dir, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if err := reopened.ShardSlots(2, 2); err != nil {
		t.Fatal(err)
	}
	if reopened.Shards() != 4 || reopened.SlotShards() != 2 {
		t.Fatalf("reopened Shards=%d SlotShards=%d, want 4/2", reopened.Shards(), reopened.SlotShards())
	}
	loc := base.BusiestLocation(11 * time.Hour)
	req := ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2)
	want, err := base.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameRegion(t, "reopened-slot-sharded", got, want)
}
