package streach

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestShardedSystemEquivalence pins the facade-level acceptance
// criterion: one system re-sharded in place to 2, 4 and 3 shards answers
// the request matrix, every request kind and algorithm at four
// thresholds, bit-identically to the unsharded offline build throughout.
func TestShardedSystemEquivalence(t *testing.T) {
	sys := variant(t, vcfg{planCache: -1})
	reqs := requestMatrix(sys, 11*time.Hour).full
	var layouts []side
	for _, k := range []int{2, 4, 3} {
		if err := sys.Shard(k); err != nil {
			t.Fatalf("Shard(%d): %v", k, err)
		}
		layouts = append(layouts, replay(serial(sys), reqs))
	}
	for _, kind := range byKind(reqs) {
		t.Run(kind[0].kind, func(t *testing.T) {
			for _, layout := range layouts {
				checkOracle(t, reference(t), layout, kind)
			}
		})
	}
}

// TestShardedDoBatch: a batch of concurrent requests over a sharded
// system — duplicates sharing cluster plans — must match unsharded
// execution.
func TestShardedDoBatch(t *testing.T) {
	sharded := variant(t, vcfg{planCache: -1, shards: 4, shared: true})
	checkOracle(t, reference(t), concurrent(sharded), requestMatrix(sharded, 11*time.Hour).full)
}

// TestShardedRoute: route queries bypass the cluster and still answer.
func TestShardedRoute(t *testing.T) {
	base := smallSystem(t)
	sharded := variant(t, vcfg{planCache: -1, shards: 4, shared: true})
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
	sharded := variant(t, vcfg{planCache: -1, shards: 4, shared: true})
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
	sys := variant(t, vcfg{planCache: -1})
	reqs := requestMatrix(sys, 11*time.Hour).smoke
	for _, k := range []int{3, 1, 2, 0} {
		if err := sys.Shard(k); err != nil {
			t.Fatalf("Shard(%d): %v", k, err)
		}
		want := max(k, 1)
		if sys.Shards() != want || (len(sys.ShardStats()) > 0) != (want > 1) {
			t.Fatalf("after Shard(%d): Shards() = %d, %d shard stats", k, sys.Shards(), len(sys.ShardStats()))
		}
		checkOracle(t, reference(t), serial(sys), reqs)
	}
}

// TestShardSettersOrderFree: Shard calls racing each other and queries
// settle on the last one to run, and every answer given meanwhile —
// on whichever layout the query loaded — is the unsharded one. Run it
// under -race: topoMu serialises the re-shards, queries load the
// cluster without it.
func TestShardSettersOrderFree(t *testing.T) {
	s := variant(t, vcfg{planCache: -1})
	reqs := requestMatrix(s, 11*time.Hour).smoke
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				for _, k := range []int{2, 4, 1} {
					if err := s.Shard(k); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		checkOracle(t, reference(t), clients(s, 2), reqs)
	}
	wg.Wait()
	if err := s.Shard(4); err != nil {
		t.Fatal(err)
	}
	if got := s.Shards(); got != 4 {
		t.Fatalf("%d shards after the last Shard(4), want 4", got)
	}
	checkOracle(t, reference(t), serial(s), reqs)
}

// TestOpenSystemSharded: a reopened save directory shards (and keeps the
// plan-cache default), answering bit-identically to the live system it
// was saved from.
func TestOpenSystemSharded(t *testing.T) {
	reopened := variant(t, vcfg{saved: true, shards: 2})
	if reopened.Shards() != 2 {
		t.Fatalf("reopened Shards() = %d, want 2", reopened.Shards())
	}
	if reopened.plans == nil {
		t.Fatal("reopened system has no plan cache despite the documented default")
	}
	checkOracle(t, reference(t), serial(reopened), requestMatrix(smallSystem(t), 11*time.Hour).smoke)
}
