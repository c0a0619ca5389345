package ingest

import (
	"streach/internal/conindex"
	"streach/internal/stindex"
	"streach/internal/traj"
)

// expandBatch validates a batch against the index bounds — the checks
// Dataset.CheckTrajectory makes of a built dataset: taxi and day in
// range, and the update as a visit passing traj.CheckVisit — and
// expands each surviving update into per-slot ST-Index delta
// observations (the same slot math Build applies to a visit: every slot
// the [enter, exit] interval overlaps, with slots past midnight
// dropped). It returns the good updates, their observations, and the
// rejected updates so the caller can account for (and diagnose) each
// drop.
func expandBatch(st *stindex.Index, batch []Update) (good []Update, obs []stindex.DeltaObs, rejected []Update) {
	numSeg := st.Network().NumSegments()
	slotSec := st.SlotSeconds()
	numSlots := st.NumSlots()
	days := st.Days()
	good = batch[:0]
	for _, u := range batch {
		if u.Day < 0 || int(u.Day) >= days || u.Taxi < 0 || u.Taxi >= traj.MaxTaxis ||
			traj.CheckVisit(traj.Visit{Segment: u.Seg, EnterMs: u.EnterMs, ExitMs: u.ExitMs, Speed: u.Speed}, numSeg) != nil {
			rejected = append(rejected, u)
			continue
		}
		s0 := int(u.EnterMs) / 1000 / slotSec
		s1 := int(u.ExitMs) / 1000 / slotSec
		inRange := false
		for s := s0; s <= s1; s++ {
			if s < 0 || s >= numSlots {
				continue // ran past midnight, same as Build
			}
			obs = append(obs, stindex.DeltaObs{Seg: u.Seg, Slot: s, Day: u.Day, Taxi: u.Taxi})
			inRange = true
		}
		if !inRange {
			rejected = append(rejected, u)
			continue
		}
		good = append(good, u)
	}
	return good, obs, rejected
}

// speedSamples converts a batch of updates into Con-Index speed
// samples, one per update spanning every slot it overlaps. Feeding the
// whole batch to one ObserveSpeedBatch call (instead of one per update)
// merges the row-invalidation scans, which is what keeps the
// Con-Index tables readable while ingest runs at full rate.
func speedSamples(slotSec int, good []Update) []conindex.SpeedSample {
	samples := make([]conindex.SpeedSample, len(good))
	for i, u := range good {
		samples[i] = conindex.SpeedSample{
			Seg:   u.Seg,
			Slot0: int(u.EnterMs) / 1000 / slotSec,
			Slot1: int(u.ExitMs) / 1000 / slotSec,
			Speed: float64(u.Speed),
		}
	}
	return samples
}

// ApplyBatch folds one batch of updates into the live indexes
// synchronously. This is the WAL replay path: the batch was durable, so
// it is applied on the caller's goroutine with no queue, no WAL append,
// and no per-update diagnostics — just counts. Replay is idempotent for
// the ST-Index delta (set union) and for the Con-Index min/max bounds;
// only the route-query mean-speed accumulators can double-count a
// replayed sample, which is why the WAL is truncated strictly after a
// durable compaction.
func ApplyBatch(st *stindex.Index, con *conindex.Index, batch []Update) (applied, dropped int) {
	// Copy: expandBatch compacts in place, and replay batches may be
	// retained by the caller.
	good, obs, rejected := expandBatch(st, append([]Update(nil), batch...))
	if len(good) == 0 {
		return 0, len(rejected)
	}
	if err := st.AppendDelta(obs); err != nil {
		return 0, len(rejected) + len(good)
	}
	con.ObserveSpeedBatch(speedSamples(st.SlotSeconds(), good))
	return len(good), len(rejected)
}

// ApplyObs folds replayed carry observations into the ST-Index delta
// layer. Carry records are raw per-slot observations a budgeted
// compaction rolled over — their speed statistics were already durable
// in the persisted Con-Index when the carry was written, so replay
// deliberately touches only the trajectory delta: synthesising speed
// samples here would push fabricated values into the min/max bounds.
// Out-of-range observations (a corrupted record that still passed its
// frame CRC, or a world mismatch) are dropped and counted.
func ApplyObs(st *stindex.Index, obs []stindex.DeltaObs) (applied, dropped int) {
	numSeg := st.Network().NumSegments()
	numSlots := st.NumSlots()
	days := st.Days()
	good := obs[:0]
	for _, o := range obs {
		if o.Seg < 0 || int(o.Seg) >= numSeg ||
			o.Slot < 0 || o.Slot >= numSlots ||
			o.Day < 0 || int(o.Day) >= days ||
			o.Taxi < 0 || o.Taxi >= 1<<15 {
			dropped++
			continue
		}
		good = append(good, o)
	}
	if len(good) == 0 {
		return 0, dropped
	}
	if err := st.AppendDelta(good); err != nil {
		return 0, dropped + len(good)
	}
	return len(good), dropped
}
