package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"streach/internal/core"
)

// Hedged scatter verification: when a shard's verify slice runs past a
// latency-quantile trigger, a hedge attempt races it over the same
// positions — modelling a retry against a healthy replica of the slice,
// so the hedge path skips the shard's injected fault. Both attempts
// compute into private buffers (core.VerifyPositions); the first
// success commits (core.CommitVerified) and cancels the loser, which
// must exit promptly and return its scratch. Probabilities are a
// property of the data, so whichever attempt wins, the committed values
// — and the final region — are bit-identical.
//
// Hedges draw from a cluster-wide budget (MaxOutstanding) so that under
// a genuine overload — every shard slow because the machine is slow —
// hedging cannot double the work and dig the hole deeper: once the
// budget is out, slices run unhedged and the per-shard budget still
// bounds them.

// HedgeConfig tunes hedged scatter verification. The zero value leaves
// hedging disabled; enabling with zero fields uses the defaults noted
// per field.
type HedgeConfig struct {
	// Enabled turns hedging on.
	Enabled bool
	// Trigger is the floor latency before a hedge may launch (default
	// 25ms). The effective trigger is the larger of this and 2× the
	// shard's p95 successful-call latency once enough samples exist.
	Trigger time.Duration
	// MaxOutstanding bounds concurrent hedges cluster-wide (default
	// half the shard count, at least 1).
	MaxOutstanding int
}

func (cfg HedgeConfig) withDefaults(k int) HedgeConfig {
	if cfg.Trigger <= 0 {
		cfg.Trigger = 25 * time.Millisecond
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = k / 2
		if cfg.MaxOutstanding < 1 {
			cfg.MaxOutstanding = 1
		}
	}
	return cfg
}

// hedgeState is the cluster-wide hedge budget and counters, shared by
// every view.
type hedgeState struct {
	mu          sync.Mutex
	cfg         HedgeConfig
	outstanding int
	launched    atomic.Int64
	wins        atomic.Int64
}

func newHedgeState(k int) *hedgeState {
	return &hedgeState{cfg: HedgeConfig{}.withDefaults(k)}
}

func (h *hedgeState) config() HedgeConfig {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cfg
}

func (h *hedgeState) configure(cfg HedgeConfig, k int) {
	h.mu.Lock()
	h.cfg = cfg.withDefaults(k)
	h.mu.Unlock()
}

// tryAcquire claims one hedge slot; callers that got one must release.
func (h *hedgeState) tryAcquire() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.outstanding >= h.cfg.MaxOutstanding {
		return false
	}
	h.outstanding++
	return true
}

func (h *hedgeState) release() {
	h.mu.Lock()
	h.outstanding--
	h.mu.Unlock()
}

// SetHedging applies cfg cluster-wide. Shared by all views.
func (c *Cluster) SetHedging(cfg HedgeConfig) { c.hedge.configure(cfg, c.part.Shards()) }

// HedgeConfigured returns the active hedge config.
func (c *Cluster) HedgeConfigured() HedgeConfig { return c.hedge.config() }

// hedgeTrigger picks the hedge launch latency for one shard: the config
// floor, or 2× the shard's recent p95 success latency when the window
// has enough samples to trust.
func (c *Cluster) hedgeTrigger(sh int, cfg HedgeConfig) time.Duration {
	if q := c.brk.successQuantile(sh, 0.95, 8); 2*q > cfg.Trigger {
		return 2 * q
	}
	return cfg.Trigger
}

// verifyShardHedged runs one shard's scatter slice, racing a hedge
// attempt against the primary if the trigger fires first and the hedge
// budget has a slot. Exactly one attempt commits; the loser is
// cancelled via its context and always reaped before return (no
// goroutine outlives this call). Half-open breaker probes never hedge —
// the probe must measure the primary path.
func (c *Cluster) verifyShardHedged(ctx context.Context, leaf *core.SharedPlan, sh int, eng *core.Engine, pos []int, probe bool) error {
	cfg := c.hedge.config()
	if !cfg.Enabled || probe {
		return c.verifyShard(ctx, leaf, sh, eng, pos)
	}
	if c.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.budget)
		defer cancel()
	}
	type attempt struct {
		vals   []float64
		err    error
		hedged bool
	}
	results := make(chan attempt, 2)
	primCtx, cancelPrim := context.WithCancel(ctx)
	defer cancelPrim()
	t0 := time.Now()
	go func() {
		vals, err := c.verifyShardVals(primCtx, leaf, sh, eng, pos, false)
		results <- attempt{vals, err, false}
	}()
	timer := time.NewTimer(c.hedgeTrigger(sh, cfg))
	defer timer.Stop()
	var (
		timerC       <-chan time.Time = timer.C
		cancelHedge  context.CancelFunc
		outstanding  = 1
		won, byHedge bool
		firstErr     error
	)
	for outstanding > 0 {
		select {
		case a := <-results:
			outstanding--
			switch {
			case a.err == nil && !won:
				won, byHedge = true, a.hedged
				leaf.CommitVerified(pos, a.vals)
				cancelPrim()
				if cancelHedge != nil {
					cancelHedge()
				}
			case a.err != nil && firstErr == nil:
				firstErr = a.err
			}
		case <-timerC:
			timerC = nil
			if won || !c.hedge.tryAcquire() {
				continue
			}
			c.hedge.launched.Add(1)
			var hctx context.Context
			hctx, cancelHedge = context.WithCancel(ctx)
			outstanding++
			go func() {
				vals, err := c.verifyShardVals(hctx, leaf, sh, eng, pos, true)
				results <- attempt{vals, err, true}
			}()
		}
	}
	if cancelHedge != nil {
		cancelHedge()
		c.hedge.release()
	}
	if !won {
		if firstErr == nil {
			firstErr = ctx.Err()
		}
		if firstErr == nil {
			firstErr = errors.New("shard: hedged verification produced no result")
		}
		return firstErr
	}
	if byHedge {
		c.hedge.wins.Add(1)
	}
	c.m.verified[sh].Add(int64(len(pos)))
	c.m.verifyNS[sh].Add(time.Since(t0).Nanoseconds())
	return nil
}
