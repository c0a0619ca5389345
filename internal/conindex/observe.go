package conindex

import (
	"math"
	"sync/atomic"

	"streach/internal/bitset"
	"streach/internal/roadnet"
)

// Streaming speed observations (DESIGN.md §13).
//
// The Con-Index is fully determined by its per-(segment, slot) speed
// statistics; the four adjacency tables are derived views. A live
// observation therefore has two jobs: fold the sample into the
// statistics exactly as an offline Build over the union of base and
// ingested data would have, and kill every materialised row the change
// can have altered.
//
// The fold rule reproduces Build bit-for-bit because min and max are
// order-independent and the Near safety factor commutes with min:
//
//   - cnt == 0: the stored min/max are fallbacks (free-flow fractions)
//     that Build only applies to unobserved cells, so the first real
//     sample replaces them outright: min = sp·safety, max = sp,
//     sum = sp, cnt = 1.
//   - cnt > 0: min = min(min, sp·safety), max = max(max, sp),
//     sum += sp, cnt++. (sum accumulates in arrival order, so MeanSpeed
//     — a route-query input only — can differ from an offline rebuild
//     in the last float32 ulp; the min/max bounds that decide
//     reach/reverse/multi answers cannot.)
//
// Samples Build's scan would not fold (folds) are dropped
// entirely.

// SpeedSample is one live speed observation for ObserveSpeedBatch: a
// speed in m/s seen on Seg across every slot in [Slot0, Slot1].
type SpeedSample struct {
	Seg          roadnet.SegmentID
	Slot0, Slot1 int
	Speed        float64
}

// ObserveSpeedBatch folds a batch of samples in arrival order (the fold
// result is identical to one-sample batches in the same order) and then
// invalidates affected adjacency rows with one merged scan per touched
// slot rather than one per sample. The merge is what keeps live ingest
// off the query path: each scan walks a slot's whole array under the
// tables' mutexes — which cold misses need to install their rows — so
// at thousands of samples/s per-sample scanning would starve them.
// Samples on a segment the network does not have, or at a speed Build
// would not fold (below minSpeedFloor, above speedCeiling or NaN), are
// skipped. Reports whether any bound moved.
func (x *Index) ObserveSpeedBatch(samples []SpeedSample) bool {
	var changed map[int][]roadnet.SegmentID
	for _, sm := range samples {
		if sm.Seg < 0 || int(sm.Seg) >= x.net.NumSegments() {
			continue
		}
		if !folds(sm.Speed) {
			continue
		}
		s1 := sm.Slot1
		if s1 < sm.Slot0 {
			s1 = sm.Slot0
		}
		for s := sm.Slot0; s <= s1; s++ {
			if s < 0 || s >= x.numSlots {
				continue
			}
			if x.observeSlot(sm.Seg, s, float32(sm.Speed)) {
				if changed == nil {
					changed = map[int][]roadnet.SegmentID{}
				}
				changed[s] = append(changed[s], sm.Seg)
			}
		}
	}
	for slot, segs := range changed {
		x.invalidateRows(slot, segs)
	}
	return changed != nil
}

// observeSlot applies the fold rule to one cell under obsMu and reports
// whether a bound moved. The field writes are atomic stores (readers
// are lock-free); the slot's generation is bumped after the writes so
// any expansion at this slot that recorded the previous generation
// refuses to cache itself.
func (x *Index) observeSlot(seg roadnet.SegmentID, slot int, sp float32) bool {
	k := slot*x.net.NumSegments() + int(seg)
	spMin := sp * nearSafetyFactor
	x.obsMu.Lock()
	oldMin := math.Float32frombits(x.minSpeed[k])
	oldMax := math.Float32frombits(x.maxSpeed[k])
	cnt := x.cntSpeed[k]
	var newMin, newMax, newSum float32
	if cnt == 0 {
		newMin, newMax, newSum = spMin, sp, sp
	} else {
		newMin, newMax = oldMin, oldMax
		if spMin < newMin {
			newMin = spMin
		}
		if sp > newMax {
			newMax = sp
		}
		newSum = math.Float32frombits(x.sumSpeed[k]) + sp
	}
	atomic.StoreUint32(&x.minSpeed[k], math.Float32bits(newMin))
	atomic.StoreUint32(&x.maxSpeed[k], math.Float32bits(newMax))
	atomic.StoreUint32(&x.sumSpeed[k], math.Float32bits(newSum))
	atomic.StoreUint32(&x.cntSpeed[k], cnt+1)
	changed := newMin != oldMin || newMax != oldMax
	if changed {
		x.invGen.Add(1)
		x.slotGen[slot].Add(1)
	}
	x.obsMu.Unlock()
	return changed
}

// invalidateRows removes every materialised adjacency row the changed
// bounds at (segs, slot) can have influenced. Membership is the
// witness, whatever order the expansion pops in (a label-correcting
// order can pop a segment, and read its speed, more than once): an
// expansion reads a segment's speed only when it pops the segment or
// prices a push of it, and it pushes and prices only from a popped
// segment it has already put in the row. So for every segment read but
// the start, either the segment or the graph neighbour that pushed or
// priced it (forward rows via its predecessors, reverse rows via its
// successors) is in the row, and probing {seg} ∪ In(seg) ∪ Out(seg)
// across all four tables is a conservative superset of the affected
// rows. The start — the one case membership cannot witness, a row that
// is empty because its own segment was too slow to traverse — is
// covered by always dropping each changed segment's own (seg, slot)
// key. The probe sets of every changed segment are merged into one
// segment bitset, so the slot's rows are scanned once per batch, not
// once per sample, and each row costs one intersection however large
// the batch.
func (x *Index) invalidateRows(slot int, segs []roadnet.SegmentID) {
	n := x.net.NumSegments()
	selves, probes := bitset.New(n), bitset.New(n)
	for _, seg := range segs {
		selves.Add(int(seg))
		probes.Add(int(seg))
		for _, p := range x.net.Incoming(seg) {
			probes.Add(int(p))
		}
		for _, p := range x.net.Outgoing(seg) {
			probes.Add(int(p))
		}
	}
	for _, t := range x.adjTables() {
		t.invalidateSlot(slot, selves, probes)
	}
}

// InvalidationGen exposes the invalidation generation for tests and
// cache keys.
func (x *Index) InvalidationGen() uint64 { return x.invGen.Load() }
