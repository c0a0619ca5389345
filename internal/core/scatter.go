package core

import (
	"context"
	"time"

	"streach/internal/bitset"
	"streach/internal/roadnet"
	"streach/internal/xerr"
)

// This file is the SharedPlan's scatter-gather surface: the hooks a
// shard cluster uses to ship one plan across partitioned engines.
//
// A sharded query runs in three steps. The cluster's planner engine
// builds the plan with DeferVerification — bounding regions (whose
// Con-Index rows already route through the shard slices via the
// planner's RowSource), probe start-sets, and the candidate order, but
// no probabilities. The scatter step ships the plan to every shard:
// VerifyOn verifies the candidate positions a shard owns on that shard's
// engine, reading time lists from its ST-Index slice, and
// FinishVerification seals the plan. The gather step assembles one
// mergeable partial Result per shard with PartialAt, folds them with
// MergeRegions, and stamps cost attribution with Finalize — bit-identical
// to ResultAt on an unsharded engine because every per-candidate
// probability is a property of the data, not of where it was computed,
// and the merge is an exact union.

// Deferred reports whether the plan was built with DeferVerification and
// still awaits FinishVerification.
func (p *SharedPlan) Deferred() bool { return p.deferred && !p.verified }

// Candidates returns the plan's verification candidates; positions
// index into it. The slice is the plan's own: read it, don't mutate it,
// and drop it before Close.
func (p *SharedPlan) Candidates() []roadnet.SegmentID { return p.order }

// SlotWindow returns the inclusive slot range [lo, hi] of the plan's
// query window, recorded at plan time: the slots whose Con-Index rows
// and time lists the plan read.
func (p *SharedPlan) SlotWindow() (lo, hi int) { return p.slotLo, p.slotHi }

// Children returns the per-location child plans of a sequential m-query
// plan (nil otherwise). A scatter step verifies each child separately.
func (p *SharedPlan) Children() []*SharedPlan { return p.children }

// Starts returns a copy of the plan's snapped start set; for sequential
// plans, the concatenation of the children's starts in location order
// (duplicates included), matching the merged result's Starts contract.
func (p *SharedPlan) Starts() []roadnet.SegmentID {
	if p.kind == planSequential {
		var out []roadnet.SegmentID
		for _, c := range p.children {
			out = append(out, c.Starts()...)
		}
		return out
	}
	return append([]roadnet.SegmentID(nil), p.starts...)
}

// VerifyOn verifies the candidates at the given positions (indexes into
// Candidates()) on eng — a shard engine whose ST-Index slice owns those
// segments — writing their empirical probabilities into the plan. Only
// valid on a deferred plan before FinishVerification; sequential plans
// verify their Children individually. Concurrent VerifyOn calls are the
// scatter step and are safe exactly when their position sets are
// disjoint (each position is written once).
func (p *SharedPlan) VerifyOn(ctx context.Context, eng *Engine, positions []int) error {
	if p.closed {
		return xerr.Markf(xerr.KindInternal, "core: VerifyOn on a closed plan")
	}
	if !p.deferred || p.verified {
		return xerr.Markf(xerr.KindInternal, "core: VerifyOn needs a deferred, unsealed plan")
	}
	if p.kind == planSequential {
		return xerr.Markf(xerr.KindInternal, "core: VerifyOn on a sequential plan; verify its children")
	}
	if len(positions) == 0 {
		return nil
	}
	segs := make([]roadnet.SegmentID, len(positions))
	for j, i := range positions {
		segs[j] = p.order[i]
	}
	pr, st := p.pr, eng.st
	newWorker := func() func(roadnet.SegmentID) (float64, error) {
		return pr.workerFor(st).prob
	}
	out, err := eng.verifyMany(ctx, segs, newWorker)
	if err != nil {
		return err
	}
	for j, i := range positions {
		p.probs[i] = out[j]
	}
	return nil
}

// FinishVerification seals a deferred plan (and its children) after the
// scatter step has covered every candidate position, charging d — the
// wall-clock cost of the whole scatter — to the plan's verification
// phase. ResultAt, PartialAt, and GatherAt work from here on.
func (p *SharedPlan) FinishVerification(d time.Duration) {
	for _, c := range p.children {
		c.FinishVerification(0)
	}
	if p.deferred && !p.verified {
		p.verified = true
		p.verifyNS += d.Nanoseconds()
	}
}

// PartialAt assembles the mergeable partial answer restricted to the
// owned segment subset at one probability threshold: the segments the
// trace-back policy admits unverified plus the qualifying verified
// candidates, both intersected with owned. Partial metrics (Evaluated,
// MaxRegion, MinRegion) count only owned members, so the partials of a
// partition sum exactly to the unsharded totals, and MergeRegions over
// them reproduces ResultAt bit-identically. Segments may be unsorted;
// the merge sorts. EarlyStop plans verify lazily and have no partial
// form.
func (p *SharedPlan) PartialAt(ctx context.Context, prob float64, owned bitset.Set) (*Result, error) {
	if err := validateProb(prob); err != nil {
		return nil, err
	}
	if p.closed {
		return nil, xerr.Markf(xerr.KindInternal, "core: PartialAt on a closed plan")
	}
	if p.deferred && !p.verified {
		return nil, xerr.Markf(xerr.KindInternal, "core: PartialAt on a deferred plan before FinishVerification")
	}
	if p.lazy {
		return nil, xerr.Markf(xerr.KindInternal, "core: PartialAt on an EarlyStop plan (lazy verification has no partial form)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.kind == planSequential {
		parts := make([]*Result, len(p.children))
		for i, child := range p.children {
			one, err := child.PartialAt(ctx, prob, owned)
			if err != nil {
				return nil, err
			}
			parts[i] = one
		}
		// The sequential baseline drops probabilities at its merge; so do
		// its partials, keeping the sharded union's contract identical.
		res := MergeRegions(false, parts...)
		res.Starts = nil // starts belong to the final gather, not a shard
		return res, nil
	}

	res := &Result{Probability: map[roadnet.SegmentID]float64{}}
	for _, s := range p.keep {
		if owned.Has(int(s)) {
			res.Segments = append(res.Segments, s)
		}
	}
	evaluated := 0
	for i, s := range p.order {
		if !owned.Has(int(s)) {
			continue
		}
		evaluated++
		if p.probs[i] >= prob {
			res.Segments = append(res.Segments, s)
			res.Probability[s] = p.probs[i]
		}
	}
	res.Metrics.Evaluated = evaluated
	if p.kind == planBounded {
		res.Metrics.MaxRegion = bitset.AndCount(p.maxReg.bits, owned)
		res.Metrics.MinRegion = bitset.AndCount(p.minReg.bits, owned)
	}
	return res, nil
}

// Finalize stamps a merged result with the plan's cost attribution —
// phase timings, start set, sort order, road length, IO and cache deltas
// — exactly as ResultAt would, completing a gather: the result of
// MergeRegions over every shard's PartialAt plus Finalize is
// bit-identical to ResultAt.
func (p *SharedPlan) Finalize(res *Result) {
	res.Starts = p.Starts()
	switch p.kind {
	case planBounded:
		res.Metrics.BoundNS = p.boundNS
		res.Metrics.VerifyNS = p.verifyNS
	case planSequential:
		res.Metrics.BoundNS, res.Metrics.VerifyNS = 0, 0
		for _, c := range p.children {
			res.Metrics.BoundNS += c.boundNS
			res.Metrics.VerifyNS += c.verifyNS
		}
		// A sharded sequential plan's verification cost lands on the
		// parent (FinishVerification charges the whole scatter there, the
		// deferred children carry only their deferral stamp); unsharded
		// parents have zero, so this is exact either way.
		res.Metrics.VerifyNS += p.verifyNS
	}
	p.finish(res)
}

// Rebase resets the plan's cost-attribution snapshots to now, so a plan
// reused from the cross-batch cache charges its next caller only for the
// work done since reuse (threshold scans, IO it actually triggers)
// rather than the original construction's whole history.
func (p *SharedPlan) Rebase() {
	p.began = now()
	p.io0 = p.e.st.Pool().Stats()
	p.tl0 = p.e.st.CacheStats()
	p.rows0 = p.RowStats()
	for _, c := range p.children {
		c.Rebase()
	}
}
