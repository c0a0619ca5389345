package streach

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"streach/internal/bitset"
	"streach/internal/conindex"
	"streach/internal/core"
	"streach/internal/geo"
	"streach/internal/roadnet"
)

// perRowSource is the bounding rounds' row source as it was before a
// round became one batch call: every row of the round fetched on its
// own, one after another on the calling goroutine, and ORed in as it
// arrives. Kept as the reference the batch path is held to.
type perRowSource struct {
	con     *conindex.Index
	fetched int64
}

func (s *perRowSource) Row(ctx context.Context, kind conindex.Kind, seg roadnet.SegmentID, slot int) (conindex.Row, error) {
	s.fetched++
	return s.con.RowCtx(ctx, kind, seg, slot)
}

func (s *perRowSource) OrRows(ctx context.Context, kind conindex.Kind, segs []roadnet.SegmentID, slot int, dst bitset.Set) error {
	for _, seg := range segs {
		row, err := s.Row(ctx, kind, seg, slot)
		if err != nil {
			return err
		}
		row.OrInto(dst)
	}
	return nil
}

func (s *perRowSource) Stats() conindex.PinStats { return conindex.PinStats{Fetched: s.fetched} }

// coldSystem builds a system of its own over the shared fixture's world:
// same answers, nothing materialised in its Con-Index.
func coldSystem(t *testing.T) *System {
	t.Helper()
	base := smallSystem(t)
	idx := DefaultIndexConfig()
	idx.PlanCache = -1
	s, err := NewSystemFromData(base.Network(), base.Dataset(), idx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBatchRoundsMatchPerRowReference: reach, reverse and multi answers
// at four thresholds, bounded cold through the batch call — unsharded
// and on four shards, at 1, 2 and 8 Ps — are bit-identical to the
// per-row reference's.
func TestBatchRoundsMatchPerRowReference(t *testing.T) {
	base := smallSystem(t)
	loc := base.BusiestLocation(11 * time.Hour)
	multi := []Location{loc, {Lat: loc.Lat + 0.01, Lng: loc.Lng + 0.01}}
	probs := []float64{0.05, 0.2, 0.5, 0.9}
	reqs := []Request{
		ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0),
		ReverseRequest(loc, 11*time.Hour, 10*time.Minute, 0),
		MultiRequest(multi, 11*time.Hour, 10*time.Minute, 0),
		ReachRequest(loc, 17*time.Hour+40*time.Minute, 17*time.Minute, 0),
	}

	refSys := coldSystem(t)
	ref := refSys.Engine().WithRowSource(func() core.RowSource {
		return &perRowSource{con: refSys.Engine().ConIndex()}
	})
	want := map[string]*Region{}
	for ri, req := range reqs {
		for _, prob := range probs {
			var res *core.Result
			var err error
			q := core.Query{Location: geo.Point(req.Locations[0]), Start: req.Start, Duration: req.Duration, Prob: prob}
			switch req.Kind {
			case KindReach:
				res, err = ref.SQMB(context.Background(), q)
			case KindReverse:
				res, err = ref.ReverseSQMB(context.Background(), q)
			case KindMulti:
				res, err = ref.MQMB(context.Background(), core.MultiQuery{Locations: toPoints(req.Locations), Start: req.Start, Duration: req.Duration, Prob: prob})
			}
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(ri, prob)] = refSys.region(res)
		}
	}

	topologies := []struct {
		name  string
		shard func(*System) error
	}{
		{"unsharded", func(*System) error { return nil }},
		{"Shard(4)", func(s *System) error { return s.Shard(4) }},
	}
	for _, procs := range []int{1, 2, 8} {
		for _, topo := range topologies {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, topo.name), func(t *testing.T) {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				sys := coldSystem(t)
				if err := topo.shard(sys); err != nil {
					t.Fatal(err)
				}
				for ri, req := range reqs {
					for _, prob := range probs {
						req.Prob = prob
						got, err := sys.Do(context.Background(), req)
						if err != nil {
							t.Fatal(err)
						}
						sameRegion(t, fmt.Sprint(req.Kind, " ", prob), got, want[fmt.Sprint(ri, prob)])
					}
				}
				if st, rst := sys.Engine().ConIndex().Stats(), refSys.Engine().ConIndex().Stats(); st.Materialised != rst.Materialised {
					t.Fatalf("the batch path ran %d expansions, the per-row reference %d", st.Materialised, rst.Materialised)
				}
			})
		}
	}
}
