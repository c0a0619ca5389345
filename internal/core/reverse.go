package core

import (
	"context"

	"streach/internal/bitset"
	"streach/internal/roadnet"
	"streach/internal/stindex"
)

// Reverse reachability queries answer the mirror question: from which
// road segments can the query location be reached within [T, T+L] on at
// least Prob of the days? This is the natural direction for the
// location-based advertising scenario (thesis Fig 1.2): the coupon-drop
// area is where customers can reach the mall from, not where the mall's
// own traffic disperses to.
//
// A day d supports segment r when some trajectory appears at r during
// [T, T+Δt] and at the destination during [T, T+L] on day d — Eq 3.1
// with the roles of the endpoints swapped.

// newReverseProbe builds the reverse probe on the forward probe's
// machinery with the roles swapped: its single "source" is the
// destination's per-day taxi bitsets OR-folded over the whole window,
// and each candidate is matched on its start-slot time list alone.
func (e *Engine) newReverseProbe(ctx context.Context, dst roadnet.SegmentID, startSlot, loSlot, hiSlot int) (*probe, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lists, err := e.st.TimeListsRange(dst, loSlot, hiSlot, nil)
	if err != nil {
		return nil, err
	}
	days := e.st.Days()
	targets := make([][]uint64, days)
	for _, bits := range lists {
		for j, d := range bits.Days {
			if int(d) >= days {
				continue
			}
			targets[d] = bitset.OrGrow(targets[d], bits.Bits[j])
		}
	}
	sets := stindex.NewMatchSets(days, [][][]uint64{targets})
	return &probe{e: e, sets: sets, loSlot: startSlot, hiSlot: startSlot, days: days}, nil
}
