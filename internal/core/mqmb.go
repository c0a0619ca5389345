package core

import (
	"context"
	"time"

	"streach/internal/bitset"
	"streach/internal/conindex"
	"streach/internal/roadnet"
)

// unifiedRegionPin grows the m-query bounding region (Algorithm 3). Each
// round ORs the Con-Index rows of every region segment into a scratch
// bitset, diffs out the existing region to get the candidate set B, then
// filters candidates through the overlap rule: a candidate b survives
// only when it appears in the row of its nearest region segment rs
// (line 8's rs = argmin dis(r', b)), so duplicated influence inside
// overlapping regions is eliminated. The round's union is one
// RowSource.OrRows call, as in SQMB; the overlap rule's re-read of the
// row of a candidate's nearest region segment is a single Row — a
// lock-free table hit, the round having just resolved it.
func (e *Engine) unifiedRegionPin(ctx context.Context, rows RowSource, kind conindex.Kind, starts []roadnet.SegmentID, startOfDay, dur time.Duration) (*region, error) {
	n := e.net.NumSegments()
	reg := e.getRegion()
	grown := false
	defer func() {
		if !grown {
			e.putRegion(reg)
		}
	}()
	for _, r := range starts {
		reg.add(r, 0)
	}
	k := e.rounds(dur)
	slotSec := e.st.SlotSeconds()
	nb := e.getBitset()
	defer e.putBitset(nb)
	next := nb.bits
	for i := 0; i < k; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if reg.size() == n {
			break
		}
		slot := (int(startOfDay.Seconds()) + i*slotSec) / slotSec
		snapshot := append([]roadnet.SegmentID(nil), reg.segs...)
		copy(next, reg.bits)
		if err := rows.OrRows(ctx, kind, snapshot, slot, next); err != nil {
			return nil, err
		}
		if e.opts.NoOverlapFilter {
			reg.adopt(next, i+1)
			continue
		}
		// Candidate set B = next \ region (word diff).
		var cands []roadnet.SegmentID
		bitset.ForEachDiff(next, reg.bits, func(b int) {
			cands = append(cands, roadnet.SegmentID(b))
		})
		if len(cands) == 0 {
			continue
		}
		// Overlap elimination: nearest region segment per candidate via
		// one multi-source expansion, then the membership test b ∈ F(rs).
		nearest := e.nearestAttribution(snapshot, cands)
		for _, b := range cands {
			rs, ok := nearest[b]
			if !ok {
				continue // not reached by the bounded expansion: drop
			}
			row, err := rows.Row(ctx, kind, rs, slot)
			if err != nil {
				return nil, err
			}
			if row.Has(b) {
				reg.add(b, i+1)
			}
		}
	}
	grown = true
	return reg, nil
}

// nearestAttribution finds, for every candidate, the nearest source
// segment by network distance (thesis: "employing shortest path
// techniques"). One multi-source Dijkstra covers all candidates.
func (e *Engine) nearestAttribution(sources, candidates []roadnet.SegmentID) map[roadnet.SegmentID]roadnet.SegmentID {
	cb := e.getBitset()
	defer e.putBitset(cb)
	isCand := cb.bits
	for _, b := range candidates {
		isCand.Add(int(b))
	}
	// Bound the expansion by the furthest plausible candidate distance:
	// one Δt at a generous speed, plus slack.
	budget := float64(e.st.SlotSeconds())*35 + 3000
	out := make(map[roadnet.SegmentID]roadnet.SegmentID, len(candidates))
	remaining := len(candidates)
	e.net.ExpandMulti(sources, budget, e.net.DistanceWeight(), func(id roadnet.SegmentID, cost float64, srcIdx int) bool {
		if isCand.Has(int(id)) {
			if _, done := out[id]; !done {
				out[id] = sources[srcIdx]
				remaining--
			}
		}
		return remaining > 0
	})
	return out
}
