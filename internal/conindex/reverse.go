package conindex

import (
	"context"

	"streach/internal/roadnet"
)

// Reverse connection tables support reverse reachability queries ("from
// which segments can this destination be reached within Δt?"). They are
// the mirror image of the forward tables: the expansion runs over
// predecessor edges with the same per-slot speed extremes.
//
// FarReverse(r, t) is the upper bound — every segment from which r can be
// *entered* within one Δt at maximum speeds, assuming the mover starts at
// the candidate's entry and must traverse everything up to (excluding) r.
// NearReverse(r, t) is the lower bound at minimum speeds, requiring r
// itself to be fully traversed too.

// expandReverse runs the mirrored travel-time expansion: cost[q] is the
// travel time from the *entry* of q to the *entry* of seg, i.e. the sum
// of traversal times of q and every intermediate segment, excluding seg.
// ctx is checked every ctxCheckInterval pops, and rows do not depend on
// pop order, for the reasons given at expand.
//
// Far mode: include q when cost[q] <= budget (the mover enters seg in
// time). Near mode: include q when cost[q] + time(seg) <= budget (the
// whole journey, including finishing seg, fits).
func (x *Index) expandReverse(ctx context.Context, seg roadnet.SegmentID, slot int, far bool) (Row, error) {
	if err := ctx.Err(); err != nil {
		return Row{}, err
	}
	budget := float64(x.slotSec)
	length := x.net.Lengths()
	off, pred := x.net.Adjacency(roadnet.Backward)
	row := x.slot(slot)
	speeds := row.min
	if far {
		speeds = row.max
	}
	timeOf := func(s roadnet.SegmentID) float64 {
		sp := float64(loadSpeed(speeds, int(s)))
		if sp <= 0 {
			return budget + 1
		}
		return length[s] / sp
	}

	segTime := timeOf(seg)
	// In Near mode, if seg itself cannot be traversed in time, nothing —
	// not even seg — is surely reachable.
	if !far && segTime > budget {
		return Row{}, nil
	}
	effBudget := budget
	if !far {
		effBudget = budget - segTime
	}

	sc := x.getScratch()
	defer x.putScratch(sc)
	stamp := sc.stamp
	q := &sc.q
	sc.enterCost[seg] = 0
	sc.enterStamp[seg] = stamp
	q.push(entryItem{seg, 0})
	pops := 0
	for ; q.next(); pops++ {
		if pops%ctxCheckInterval == 0 && pops > 0 {
			if err := ctx.Err(); err != nil {
				return Row{}, err
			}
		}
		it := q.pop()
		if it.cost > sc.enterCost[it.seg] || it.cost > effBudget {
			continue
		}
		sc.out = append(sc.out, it.seg)
		for _, prev := range pred[off[it.seg]:off[it.seg+1]] {
			c := it.cost + timeOf(prev)
			if c > effBudget {
				continue
			}
			if sc.enterStamp[prev] != stamp || c < sc.enterCost[prev] {
				sc.enterCost[prev] = c
				sc.enterStamp[prev] = stamp
				q.push(entryItem{prev, c})
			}
		}
	}
	sc.pops = pops
	return makeRow(sc.out, sc.bits), nil
}
