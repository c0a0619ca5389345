package core

import (
	"context"
	"math/bits"
	"time"

	"streach/internal/bitset"
	"streach/internal/conindex"
	"streach/internal/roadnet"
	"streach/internal/xerr"
)

// region is a bounding region over a fixed-size network, held in two
// parallel forms: a dense membership bitset (the form the bounding
// rounds union whole Con-Index rows into, word by word) and, for each
// member segment, the expansion round (0 = start) in which it first
// appeared. Rounds order segments outer-to-inner for the trace back
// search.
type region struct {
	round []int16 // -1 = not a member
	segs  []roadnet.SegmentID
	bits  bitset.Set
}

func newRegion(numSegments int) *region {
	r := &region{
		round: make([]int16, numSegments),
		bits:  bitset.New(numSegments),
	}
	for i := range r.round {
		r.round[i] = -1
	}
	return r
}

// reset clears the region for pooled reuse: only the entries its members
// touched are rewritten, plus one word-level clear of the membership
// bitset.
func (r *region) reset() {
	for _, s := range r.segs {
		r.round[s] = -1
	}
	r.segs = r.segs[:0]
	clear(r.bits)
}

func (r *region) add(s roadnet.SegmentID, round int) {
	if r.round[s] >= 0 {
		return
	}
	r.round[s] = int16(round)
	r.segs = append(r.segs, s)
	r.bits.Add(int(s))
}

// adopt folds every member of next that the region lacks into the
// region, tagged with round. next must cover the same segment space.
// New members join in ascending ID order (round tags, not insertion
// order, drive the trace-back ordering).
func (r *region) adopt(next bitset.Set, round int) {
	for w, nw := range next {
		diff := nw &^ r.bits[w]
		for diff != 0 {
			s := roadnet.SegmentID(w<<6 + bits.TrailingZeros64(diff))
			diff &= diff - 1
			r.round[s] = int16(round)
			r.segs = append(r.segs, s)
		}
		r.bits[w] |= nw
	}
}

func (r *region) has(s roadnet.SegmentID) bool { return r.round[s] >= 0 }

func (r *region) size() int { return len(r.segs) }

// splitAgainst partitions the region against an inner region with
// word-level bit ops: members shared with inner go to keep (the set TBS
// admits unverified), members exclusive to the region go to cand (the
// verification candidates, r AND NOT inner). Both callbacks see
// ascending IDs.
func (r *region) splitAgainst(inner *region, keep, cand func(roadnet.SegmentID)) {
	for w, rw := range r.bits {
		for both := rw & inner.bits[w]; both != 0; both &= both - 1 {
			keep(roadnet.SegmentID(w<<6 + bits.TrailingZeros64(both)))
		}
		for diff := rw &^ inner.bits[w]; diff != 0; diff &= diff - 1 {
			cand(roadnet.SegmentID(w<<6 + bits.TrailingZeros64(diff)))
		}
	}
}

// rounds returns how many Δt expansion steps cover the duration: k such
// that k*Δt >= L (Algorithm 1 keeps searching until the duration is met).
func (e *Engine) rounds(dur time.Duration) int {
	slot := time.Duration(e.st.SlotSeconds()) * time.Second
	k := int((dur + slot - 1) / slot)
	if k < 1 {
		k = 1
	}
	return k
}

// boundingRegionPin implements the s-query maximum bounding region
// search (SQMB, Algorithm 1): starting from starts, repeatedly union the
// Con-Index Far rows of every region segment, stepping the time slot by
// Δt each round, until the duration is covered. Kind Near computes the
// minimum bounding region from the Near rows instead (the thesis notes
// SQMB applies "naturally" to the minimum region), and the reverse kinds
// mirror both over the reverse connection tables from a destination.
//
// A round is one RowSource.OrRows call: the plan's row source (a
// conindex.Pin by default, a shard router on a cluster's planner) ORs
// the rows of a snapshot of the whole accumulated region (Algorithm 1
// line 8 sets R = B each round) into a scratch bitset, building the cold
// ones on every core, and the region then adopts the newly covered
// segments with the round tag (see region.adopt). Cancellation surfaces
// through OrRows (cold rows abort their Dijkstra) and through the
// per-round ctx check, so even an all-warm bounding phase stops between
// rounds.
//
// The returned region comes from the engine's scratch pool; callers
// release it with putRegion when done.
func (e *Engine) boundingRegionPin(ctx context.Context, rows RowSource, kind conindex.Kind, starts []roadnet.SegmentID, startOfDay, dur time.Duration) (*region, error) {
	reg := e.getRegion()
	for _, r := range starts {
		reg.add(r, 0)
	}
	k := e.rounds(dur)
	slotSec := e.st.SlotSeconds()
	n := e.net.NumSegments()
	nb := e.getBitset()
	defer e.putBitset(nb)
	next := nb.bits
	for i := 0; i < k; i++ {
		if err := ctx.Err(); err != nil {
			e.putRegion(reg)
			return nil, err
		}
		if reg.size() == n {
			break // the region saturated the network; no round can add more
		}
		slot := (int(startOfDay.Seconds()) + i*slotSec) / slotSec
		copy(next, reg.bits)
		if err := rows.OrRows(ctx, kind, reg.segs, slot, next); err != nil {
			e.putRegion(reg)
			return nil, err
		}
		reg.adopt(next, i+1)
	}
	return reg, nil
}

// SQMB answers an s-query with the paper's two-step pipeline: maximum/
// minimum bounding region search via the Con-Index, then trace back
// search (TBS) to refine the Prob-reachable region. It is a single-use
// shared plan: PlanReach does everything that is independent of the
// probability threshold, ResultAt applies the threshold — so one query
// and a batch group sharing a plan produce bit-identical results by
// construction.
func (e *Engine) SQMB(ctx context.Context, q Query) (*Result, error) {
	if err := e.validate(q.Start, q.Duration, q.Prob); err != nil {
		return nil, err
	}
	p, err := e.PlanReach(ctx, q)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.ResultAt(ctx, q.Prob)
}

// MaxBoundingRegion exposes the SQMB maximum bounding region for tests,
// tools, and visualisation.
func (e *Engine) MaxBoundingRegion(ctx context.Context, q Query) ([]roadnet.SegmentID, error) {
	if err := e.validate(q.Start, q.Duration, q.Prob); err != nil {
		return nil, err
	}
	r0, ok := e.st.SnapLocation(q.Location)
	if !ok {
		return nil, xerr.Markf(xerr.KindInvalid, "core: no road segment near %v", q.Location)
	}
	reg, err := e.boundingRegionPin(ctx, e.con.NewPin(), conindex.Far, []roadnet.SegmentID{r0}, q.Start, q.Duration)
	if err != nil {
		return nil, err
	}
	segs := append([]roadnet.SegmentID(nil), reg.segs...)
	e.putRegion(reg)
	return segs, nil
}

// MinBoundingRegion exposes the SQMB minimum bounding region.
func (e *Engine) MinBoundingRegion(ctx context.Context, q Query) ([]roadnet.SegmentID, error) {
	if err := e.validate(q.Start, q.Duration, q.Prob); err != nil {
		return nil, err
	}
	r0, ok := e.st.SnapLocation(q.Location)
	if !ok {
		return nil, xerr.Markf(xerr.KindInvalid, "core: no road segment near %v", q.Location)
	}
	reg, err := e.boundingRegionPin(ctx, e.con.NewPin(), conindex.Near, []roadnet.SegmentID{r0}, q.Start, q.Duration)
	if err != nil {
		return nil, err
	}
	segs := append([]roadnet.SegmentID(nil), reg.segs...)
	e.putRegion(reg)
	return segs, nil
}

// now is indirected for tests.
var now = time.Now
