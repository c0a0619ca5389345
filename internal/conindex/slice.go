package conindex

import (
	"fmt"

	"streach/internal/bitset"
	"streach/internal/roadnet"
)

// Slice is a shard-local view of the Con-Index: it resolves adjacency
// rows only for the segments its shard owns and rejects everything else,
// so a mis-routed row fetch fails loudly instead of silently answering
// from another shard's data. Slices share the underlying index — the
// materialised tables, their singleflight registry, and the per-slot
// speed extremes — which is the single-process analogue of each shard
// holding its own partition of the tables while the network topology and
// speed statistics are replicated everywhere.
type Slice struct {
	x     *Index
	shard int
	owned bitset.Set

	// slotRanged, when true, additionally restricts the slice to
	// adjacency rows whose (normalised) slot falls in the inclusive
	// [slotLo, slotHi] range — the served range of a temporal shard.
	// Rows are fetched per (segment, slot), so unlike the ST-Index held
	// range no overhang is needed: the row router sends each fetch to
	// the slot's serving shard directly.
	slotRanged     bool
	slotLo, slotHi int
}

// Slice returns a shard-local view that serves adjacency rows only for
// the owned segments. shard is the owning shard's ordinal, used in error
// messages and metrics.
func (x *Index) Slice(shard int, owned bitset.Set) *Slice {
	return &Slice{x: x, shard: shard, owned: owned}
}

// SliceSlots returns a shard-local view restricted on both axes: rows
// resolve only for owned segments and only at slots inside [slotLo,
// slotHi]. owned may be nil for a pure temporal shard.
func (x *Index) SliceSlots(shard int, owned bitset.Set, slotLo, slotHi int) *Slice {
	return &Slice{x: x, shard: shard, owned: owned, slotRanged: true, slotLo: slotLo, slotHi: slotHi}
}

// owns reports whether the slice serves rows for seg.
func (s *Slice) owns(seg roadnet.SegmentID) bool {
	return seg >= 0 && int(seg) < s.x.net.NumSegments() && s.owned.Has(int(seg))
}

// admit rejects a round — the rows of segs at slot — that names a
// segment the slice does not own or, on a slot-ranged slice, a slot
// outside its served range; the slot is normalised mod numSlots exactly
// as the row resolvers do, so a wrapped slot checks against the slot it
// actually reads. A nil slice admits everything.
func (s *Slice) admit(slot int, segs ...roadnet.SegmentID) error {
	if s == nil {
		return nil
	}
	if slot = s.x.normSlot(slot); s.slotRanged && (slot < s.slotLo || slot > s.slotHi) {
		return fmt.Errorf("conindex: slot %d is outside shard %d's served range [%d, %d]",
			slot, s.shard, s.slotLo, s.slotHi)
	}
	if s.owned == nil {
		return nil
	}
	for _, seg := range segs {
		if !s.owns(seg) {
			return fmt.Errorf("conindex: segment %d is not owned by shard %d", seg, s.shard)
		}
	}
	return nil
}

// NewPin returns a plan-scoped row source restricted to the slice: a
// round that names a segment or slot the shard does not serve fails
// whole.
func (s *Slice) NewPin() *Pin {
	return &Pin{x: s.x, only: s}
}
