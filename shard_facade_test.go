package streach

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

var (
	shardedOnce sync.Once
	shardedSys  *System
	shardedErr  error
)

// shardedSystem builds a 4-shard system over the shared fixture's
// network and dataset, so sharded and unsharded answers come from the
// same world. The plan cache stays off for the equivalence tests (every
// Do must really run the scatter-gather path).
func shardedSystem(t *testing.T) *System {
	t.Helper()
	base := smallSystem(t)
	shardedOnce.Do(func() {
		idx := DefaultIndexConfig()
		idx.PlanCache = -1
		if shardedSys, shardedErr = NewSystemFromData(base.Network(), base.Dataset(), idx); shardedErr == nil {
			shardedErr = shardedSys.Shard(4)
		}
	})
	if shardedErr != nil {
		t.Fatal(shardedErr)
	}
	return shardedSys
}

func sameRegion(t *testing.T, name string, got, want *Region) {
	t.Helper()
	if !reflect.DeepEqual(got.SegmentIDs, want.SegmentIDs) {
		t.Fatalf("%s: segments differ (%d vs %d)", name, len(got.SegmentIDs), len(want.SegmentIDs))
	}
	if !reflect.DeepEqual(got.Probabilities, want.Probabilities) {
		t.Fatalf("%s: probabilities differ", name)
	}
	if got.RoadKm != want.RoadKm {
		t.Fatalf("%s: road km %v vs %v", name, got.RoadKm, want.RoadKm)
	}
	if got.Metrics.Evaluated != want.Metrics.Evaluated {
		t.Fatalf("%s: evaluated %d vs %d", name, got.Metrics.Evaluated, want.Metrics.Evaluated)
	}
	if got.Metrics.MaxRegion != want.Metrics.MaxRegion || got.Metrics.MinRegion != want.Metrics.MinRegion {
		t.Fatalf("%s: bounding regions (%d,%d) vs (%d,%d)", name,
			got.Metrics.MaxRegion, got.Metrics.MinRegion, want.Metrics.MaxRegion, want.Metrics.MinRegion)
	}
}

// TestShardedSystemEquivalence pins the facade-level acceptance
// criterion: a sharded System answers every request kind and algorithm
// bit-identically to an unsharded one, at four thresholds.
func TestShardedSystemEquivalence(t *testing.T) {
	base := smallSystem(t)
	sharded := shardedSystem(t)
	if sharded.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", sharded.Shards())
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
				got, err := sharded.Do(context.Background(), req, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameRegion(t, tc.name, got, want)
			}
		})
	}
}

// TestShardedDoBatch: batch execution over a sharded system — shared
// groups riding cluster plans — must match unsharded batch execution.
func TestShardedDoBatch(t *testing.T) {
	base := smallSystem(t)
	sharded := shardedSystem(t)
	loc := base.BusiestLocation(11 * time.Hour)
	var reqs []Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.1+0.05*float64(i%6)))
	}
	want := base.DoBatch(context.Background(), reqs)
	got := sharded.DoBatch(context.Background(), reqs)
	for i := range reqs {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("request %d: errs %v / %v", i, want[i].Err, got[i].Err)
		}
		sameRegion(t, "batch", got[i].Region, want[i].Region)
	}
}

// TestShardedRoute: route queries bypass the cluster and still answer.
func TestShardedRoute(t *testing.T) {
	base := smallSystem(t)
	sharded := shardedSystem(t)
	from := base.BusiestLocation(8 * time.Hour)
	to := base.BusiestLocation(18 * time.Hour)
	want, err := base.Do(context.Background(), RouteRequest(from, to, 8*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Do(context.Background(), RouteRequest(from, to, 8*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Route.SegmentIDs, want.Route.SegmentIDs) {
		t.Fatal("sharded route differs from unsharded")
	}
}

// TestShardStats: the partition must cover the network, and query work
// must show up attributed to shards.
func TestShardStats(t *testing.T) {
	sharded := shardedSystem(t)
	base := smallSystem(t)
	if base.ShardStats() != nil {
		t.Fatal("unsharded system reports shard stats")
	}
	loc := base.BusiestLocation(11 * time.Hour)
	if _, err := sharded.Do(context.Background(), ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2)); err != nil {
		t.Fatal(err)
	}
	stats := sharded.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats len = %d, want 4", len(stats))
	}
	segs, rows, verified := 0, int64(0), int64(0)
	for _, st := range stats {
		segs += st.Segments
		rows += st.RowsFetched
		verified += st.CandidatesVerified
	}
	if segs != sharded.Network().NumSegments() {
		t.Fatalf("shard segment counts sum to %d, want %d", segs, sharded.Network().NumSegments())
	}
	if rows == 0 || verified == 0 {
		t.Fatalf("no sharded work recorded (rows=%d verified=%d)", rows, verified)
	}
}

// TestShardReshard: Shard(k) flips execution modes in place; k<=1
// restores single-engine execution with identical answers.
func TestShardReshard(t *testing.T) {
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
	if err := sys.Shard(3); err != nil {
		t.Fatal(err)
	}
	if sys.Shards() != 3 {
		t.Fatalf("Shards() = %d after Shard(3)", sys.Shards())
	}
	got, err := sys.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameRegion(t, "resharded", got, want)
	if err := sys.Shard(1); err != nil {
		t.Fatal(err)
	}
	if sys.Shards() != 1 {
		t.Fatalf("Shards() = %d after Shard(1)", sys.Shards())
	}
	got, err = sys.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameRegion(t, "unsharded-again", got, want)
}

// TestOpenSystemSharded: a reopened save directory shards (and keeps the
// plan-cache default), answering bit-identically to the live system it
// was saved from.
func TestOpenSystemSharded(t *testing.T) {
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
	if err := reopened.Shard(2); err != nil {
		t.Fatal(err)
	}
	if reopened.Shards() != 2 {
		t.Fatalf("reopened Shards() = %d, want 2", reopened.Shards())
	}
	if reopened.plans == nil {
		t.Fatal("reopened system has no plan cache despite the documented default")
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
	sameRegion(t, "reopened-sharded", got, want)
}
