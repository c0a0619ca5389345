package streach

import "streach/internal/core"

// ScratchStat is one engine's scratch-pool counter snapshot (see
// ScratchStats).
type ScratchStat struct {
	// RegionGets/RegionPuts and BitsetGets/BitsetPuts count pooled
	// region and bitset checkouts and returns.
	RegionGets, RegionPuts int64
	BitsetGets, BitsetPuts int64
}

// Balanced reports whether every checkout has been returned.
func (s ScratchStat) Balanced() bool {
	return s.RegionGets == s.RegionPuts && s.BitsetGets == s.BitsetPuts
}

// ScratchStats snapshots the scratch-pool counters of the base engine
// (index 0) and, on a sharded system, the cluster planner and every
// shard engine after it. With no query in flight every snapshot must be
// Balanced() — including after shed, cancelled, or failed queries; an
// imbalance is a leaked pooled region or bitset on some error path.
func (s *System) ScratchStats() []ScratchStat {
	out := []ScratchStat{fromCoreScratch(s.engine.ScratchStats())}
	if c := s.cluster.Load(); c != nil {
		for _, st := range c.ScratchStats() {
			out = append(out, fromCoreScratch(st))
		}
	}
	return out
}

func fromCoreScratch(st core.ScratchStats) ScratchStat {
	return ScratchStat{
		RegionGets: st.RegionGets,
		RegionPuts: st.RegionPuts,
		BitsetGets: st.BitsetGets,
		BitsetPuts: st.BitsetPuts,
	}
}
