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

// TestBatchRoundsMatchPerRowReference: the request matrix (plus reach,
// reverse and multi over a 17:40 window), bounded cold through the batch
// call — unsharded and on four shards, at 1, 2 and 8 Ps — answers
// exactly as a cold system whose plans fetch rows through the per-row
// reference, and runs as many expansions.
func TestBatchRoundsMatchPerRowReference(t *testing.T) {
	refSys := variant(t, vcfg{planCache: -1})
	refSys.engine = refSys.engine.WithRowSource(func() core.RowSource {
		return &perRowSource{con: refSys.con}
	})
	reqs := append(requestMatrix(refSys, 11*time.Hour).full, requestMatrix(refSys, 17*time.Hour+40*time.Minute).smoke...)
	ref := replay(serial(refSys), reqs)
	for _, procs := range []int{1, 2, 8} {
		for _, topology := range []string{"unsharded", "Shard(4)"} {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, topology), func(t *testing.T) {
				k := 1
				if topology == "Shard(4)" {
					k = 4
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				sys := variant(t, vcfg{planCache: -1, shards: k})
				checkOracle(t, ref, serial(sys), reqs)
				if st, rst := sys.con.Stats(), refSys.con.Stats(); st.Materialised != rst.Materialised {
					t.Fatalf("the batch path ran %d expansions, the per-row reference %d", st.Materialised, rst.Materialised)
				}
			})
		}
	}
}
