package streach

import (
	"time"

	"streach/internal/core"
	"streach/internal/shard"
)

// Overload self-protection knobs: per-shard circuit breakers, default
// off; enable them with ConfigureBreakers. See DESIGN.md §12 for the
// model.

// BreakerConfig tunes the per-shard circuit breakers of a sharded
// system. A shard whose recent scatter/gather calls keep failing trips
// its breaker open; while open, queries short-circuit the shard —
// degraded coverage under WithPartialResults, an immediate typed
// ShardFailure otherwise — instead of paying the shard budget on every
// query. After Cooldown the breaker admits one probe call whose outcome
// decides between closing and re-opening. The zero value disables
// breakers; Enabled with zero fields uses the defaults.
type BreakerConfig struct {
	// Enabled turns the breakers on.
	Enabled bool
	// Window is the rolling outcome window per shard (default 16).
	Window int
	// FailureRatio is the failure fraction over the window that trips
	// the breaker (default 0.5).
	FailureRatio float64
	// MinSamples is the minimum outcomes before the ratio is trusted
	// (default 4).
	MinSamples int
	// Cooldown is how long an open breaker rejects before half-opening
	// (default 2s).
	Cooldown time.Duration
}

func (c BreakerConfig) internal() shard.BreakerConfig {
	return shard.BreakerConfig{
		Enabled:      c.Enabled,
		Window:       c.Window,
		FailureRatio: c.FailureRatio,
		MinSamples:   c.MinSamples,
		Cooldown:     c.Cooldown,
	}
}

// ConfigureBreakers applies cfg to the current cluster (if sharded) and
// to every later Shard call. Reconfiguring resets all breakers to
// closed.
func (s *System) ConfigureBreakers(cfg BreakerConfig) {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	s.breakerCfg = cfg
	if c := s.cluster.Load(); c != nil {
		c.ConfigureBreakers(cfg.internal())
	}
}

// ResilienceStats aggregates the system's self-protection counters;
// zero on an unsharded system.
type ResilienceStats struct {
	// BreakerOpens counts breaker trips (closed/half-open → open).
	BreakerOpens int64
	// BreakerShortCircuits counts shard calls rejected by an open
	// breaker.
	BreakerShortCircuits int64
}

// ResilienceStats snapshots the self-protection counters.
func (s *System) ResilienceStats() ResilienceStats {
	c := s.cluster.Load()
	if c == nil {
		return ResilienceStats{}
	}
	r := c.Resilience()
	return ResilienceStats{
		BreakerOpens:         r.BreakerOpens,
		BreakerShortCircuits: r.BreakerShortCircuits,
	}
}

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
