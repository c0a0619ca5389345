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
}

// Slice returns a shard-local view that serves adjacency rows only for
// the owned segments. shard is the owning shard's ordinal, used in error
// messages and metrics.
func (x *Index) Slice(shard int, owned bitset.Set) *Slice {
	return &Slice{x: x, shard: shard, owned: owned}
}

// owns reports whether the slice serves rows for seg.
func (s *Slice) owns(seg roadnet.SegmentID) bool {
	return seg >= 0 && int(seg) < s.x.net.NumSegments() && s.owned.Has(int(seg))
}

// admit rejects a round that names a segment the slice does not own. A
// nil slice admits everything.
func (s *Slice) admit(segs ...roadnet.SegmentID) error {
	if s == nil {
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
// round that names a segment the shard does not own fails whole.
func (s *Slice) NewPin() *Pin {
	return &Pin{x: s.x, only: s}
}
