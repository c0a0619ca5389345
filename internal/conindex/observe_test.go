package conindex

import (
	"testing"

	"streach/internal/roadnet"
	"streach/internal/traj"
)

// liveExtras is a deterministic batch of fresh-taxi visits covering
// observed and previously unobserved cells, with one sample below the
// speed floor (must be ignored by both paths).
func liveExtras(n *roadnet.Network, days int) []traj.MatchedTrajectory {
	var out []traj.MatchedTrajectory
	for i := 0; i < 200; i++ {
		enter := int32((i % 280) * 300 * 1000)
		speed := float32(2 + i%14) // i%14 < 1 never happens; floor case added below
		out = append(out, traj.MatchedTrajectory{
			Taxi: traj.TaxiID(500 + i%30),
			Day:  traj.Day(i % days),
			Visits: []traj.Visit{{
				Segment: roadnet.SegmentID((i * 11) % n.NumSegments()),
				EnterMs: enter, ExitMs: enter + 40_000, Speed: speed,
			}},
		})
	}
	// Below minSpeedFloor: both Build and ObserveSpeed must
	// drop it.
	out = append(out, traj.MatchedTrajectory{
		Taxi: 501, Day: 0,
		Visits: []traj.Visit{{Segment: 1, EnterMs: 1000, ExitMs: 2000, Speed: 0.05}},
	})
	return out
}

// TestObserveSpeedMatchesOfflineRebuild pins the fold rule: feeding
// samples through ObserveSpeed leaves the min/max speed bounds (the
// statistics that decide reach/reverse/multi answers) bit-identical to
// an offline Build over the union of base and extra data. Sample counts
// and sums also match here because arrival order is the same.
func TestObserveSpeedMatchesOfflineRebuild(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	live := build(t, n, ds)

	extras := liveExtras(n, ds.Days)
	gen0 := live.InvalidationGen()
	for i := range extras {
		mt := &extras[i]
		for _, v := range mt.Visits {
			s0 := int(v.EnterMs) / 1000 / live.SlotSeconds()
			s1 := int(v.ExitMs) / 1000 / live.SlotSeconds()
			live.ObserveSpeedBatch([]SpeedSample{{Seg: v.Segment, Slot0: s0, Slot1: s1, Speed: float64(v.Speed)}})
		}
	}
	if live.InvalidationGen() == gen0 {
		t.Fatal("observations moved no bound — fixture too weak to test invalidation")
	}

	union := &traj.Dataset{
		BaseDate: ds.BaseDate, Days: ds.Days,
		Matched: append(append([]traj.MatchedTrajectory(nil), ds.Matched...),
			extras...),
	}
	offline := build(t, n, union)

	for k := range live.minSpeed {
		if live.minSpeed[k] != offline.minSpeed[k] {
			t.Fatalf("cell %d: live min %#x, offline rebuild %#x", k, live.minSpeed[k], offline.minSpeed[k])
		}
		if live.maxSpeed[k] != offline.maxSpeed[k] {
			t.Fatalf("cell %d: live max %#x, offline rebuild %#x", k, live.maxSpeed[k], offline.maxSpeed[k])
		}
		if live.cntSpeed[k] != offline.cntSpeed[k] {
			t.Fatalf("cell %d: live cnt %d, offline rebuild %d", k, live.cntSpeed[k], offline.cntSpeed[k])
		}
		if live.sumSpeed[k] != offline.sumSpeed[k] {
			t.Fatalf("cell %d: live sum %#x, offline rebuild %#x", k, live.sumSpeed[k], offline.sumSpeed[k])
		}
	}
}

// TestObserveSpeedInvalidatesCachedRows: a materialised adjacency row
// whose bounds move must be dropped and recomputed, not served stale.
func TestObserveSpeedInvalidatesCachedRows(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	live := build(t, n, ds)

	seg := roadnet.SegmentID(4)
	slot := 130
	// Materialise the forward near row for (seg, slot).
	list(live, Near, seg, slot)
	if live.Stats().Materialised == 0 {
		t.Fatal("no row materialised")
	}

	// A wildly fast sample on the segment moves its max bound, which can
	// only grow the near set of rows that reach it.
	if !live.ObserveSpeedBatch([]SpeedSample{{Seg: seg, Slot0: slot, Slot1: slot, Speed: 60}}) {
		t.Fatal("observation did not move a bound")
	}
	// The row must be rebuilt on next access (cache miss), reflecting the
	// new bound rather than returning the cached pre-observation row.
	st1 := live.Stats()
	list(live, Near, seg, slot)
	if got := live.Stats().Materialised - st1.Materialised; got == 0 {
		t.Fatal("row served from cache after an invalidating observation")
	}
}
