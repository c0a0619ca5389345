package shard

import (
	"slices"
	"testing"

	"streach/internal/bitset"
	"streach/internal/conindex"
	"streach/internal/core"
	"streach/internal/race"
	"streach/internal/roadnet"
)

// TestRouterRoundGroupsByShard: a round through the router is the union
// the index's own pin returns, charges every row to the shard that owns
// it, and once the slot is warm allocates nothing (the per-shard groups
// and pins are the plan's, made by its first round).
func TestRouterRoundGroupsByShard(t *testing.T) {
	f := getFixture(t)
	const slot = 200
	segs := make([]roadnet.SegmentID, 0, f.net.NumSegments()/2)
	for s := 0; s < f.net.NumSegments(); s += 2 {
		segs = append(segs, roadnet.SegmentID(s))
	}
	want := bitset.New(f.net.NumSegments())
	if err := f.con.NewPin().OrRows(bg, conindex.Far, segs, slot, want); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		c, err := NewCluster(f.st, f.con, core.Options{}, k)
		if err != nil {
			t.Fatal(err)
		}
		router := c.newRowRouter()
		got := bitset.New(f.net.NumSegments())
		round := func() {
			if err := router.OrRows(bg, conindex.Far, segs, slot, got); err != nil {
				t.Fatal(err)
			}
		}
		round()
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: the routed round's union differs from the unrouted one", k)
		}
		perShard := make([]int64, c.Shards())
		for _, seg := range segs {
			perShard[c.part.Owner(seg)]++
		}
		for sh, st := range c.Stats() {
			if st.RowsFetched != perShard[sh] {
				t.Fatalf("k=%d: shard %d charged %d rows, owns %d of the round's", k, sh, st.RowsFetched, perShard[sh])
			}
		}
		if st := router.Stats(); st.Fetched != int64(len(segs)) || st.Materialised != 0 {
			t.Fatalf("k=%d: router stats %+v after one warm round of %d", k, st, len(segs))
		}
		if !race.Enabled {
			if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
				t.Fatalf("k=%d: a warm routed round allocates %.1f times", k, allocs)
			}
		}
	}
}
