package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streach/internal/conindex"
	"streach/internal/core"
	"streach/internal/stindex"
	"streach/internal/xerr"
)

// Cluster owns one core.Engine per shard over shard-local index slices
// and answers reachability queries by scatter-gather:
//
//   - plan: the planner engine (full-network view) builds a deferred
//     core.SharedPlan. Its bounding phase already executes sharded —
//     the planner's RowSource groups each bounding round's segments by
//     owning shard and resolves every group through that shard's slice;
//   - scatter: each shard engine verifies the candidate positions it
//     owns against its own ST-Index slice, concurrently;
//   - gather: one mergeable partial region per shard (SharedPlan.
//     PartialAt) folds through core.MergeRegions and the plan's
//     Finalize into an answer bit-identical to unsharded execution.
//
// In-process, "shard-local slice" means an enforced ownership view over
// shared storage: each shard can only read the rows and time lists of
// its partition (plus the plan-shipped replicas: probe start-sets and
// bounding regions), so the execution paths are exactly the ones a
// multi-process deployment would exercise, while topology and speed
// statistics stay replicated as the partitioner intends.
type Cluster struct {
	part      *Partition
	planner   *core.Engine
	engines   []*core.Engine // one per shard, indexed like part
	conSlices []*conindex.Slice
	opts      core.Options
	m         *metrics
	faults    *faultTable   // injected per-shard faults (shared by views)
	hlth      *healthTable  // per-shard failure records (shared by views)
	brk       *breakerTable // per-shard circuit breakers (shared by views)
	partial   bool          // degrade instead of failing (view-local)
	budget    time.Duration // per-shard scatter/gather bound (view-local)
}

// metrics holds the cluster's per-shard activity counters, shared by
// every WithOptions view.
type metrics struct {
	rows     []atomic.Int64 // Con-Index rows routed to the shard's slice
	verified []atomic.Int64 // candidates scatter-verified on the shard
	verifyNS []atomic.Int64 // wall-clock the shard spent verifying
	plans    atomic.Int64   // sharded plans built
	fallback atomic.Int64   // plans answered unsharded (EarlyStop)
}

// Stats is one shard's activity snapshot.
type Stats struct {
	// Shard is the shard ordinal.
	Shard int
	// Segments and BoundarySegments describe the spatial partition:
	// owned segments and how many of them border another shard.
	Segments, BoundarySegments int
	// RowsFetched counts Con-Index adjacency rows the bounding phase
	// routed through this shard's slice.
	RowsFetched int64
	// CandidatesVerified counts candidates scatter-verified on this
	// shard's ST-Index slice.
	CandidatesVerified int64
	// VerifyNS is the cumulative wall-clock the shard's engine spent in
	// scatter verification.
	VerifyNS int64
}

// NewCluster partitions the network into k shards and builds the
// per-shard engines and the planner. The indexes are the same ones an
// unsharded engine would use; every shard view shares their storage.
func NewCluster(st *stindex.Index, con *conindex.Index, opts core.Options, k int) (*Cluster, error) {
	part, err := PartitionGrid(st.Network(), k)
	if err != nil {
		return nil, err
	}
	k = part.Shards() // clamped
	c := &Cluster{
		part:      part,
		engines:   make([]*core.Engine, k),
		conSlices: make([]*conindex.Slice, k),
		opts:      opts,
		m: &metrics{
			rows:     make([]atomic.Int64, k),
			verified: make([]atomic.Int64, k),
			verifyNS: make([]atomic.Int64, k),
		},
		faults: newFaultTable(),
		hlth:   newHealthTable(k),
		brk:    newBreakerTable(k, BreakerConfig{}),
	}
	for sh := 0; sh < k; sh++ {
		c.conSlices[sh] = con.Slice(sh, part.Owned(sh))
		eng, err := core.NewEngine(st.Slice(sh, part.Owned(sh)), con, opts)
		if err != nil {
			return nil, err
		}
		c.engines[sh] = eng
	}
	base, err := core.NewEngine(st, con, opts)
	if err != nil {
		return nil, err
	}
	c.planner = base.WithRowSource(func() core.RowSource { return c.newRowRouter() })
	return c, nil
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.engines) }

// Partition returns the cluster's segment partition.
func (c *Cluster) Partition() *Partition { return c.part }

// Options returns the cluster's current engine options.
func (c *Cluster) Options() core.Options { return c.opts }

// WithOptions returns a cluster view with opts in place of the engine
// options — cheap, like core.Engine.WithOptions: the partition, index
// slices, and metrics are shared.
func (c *Cluster) WithOptions(opts core.Options) *Cluster {
	nc := *c
	nc.opts = opts
	nc.planner = c.planner.WithOptions(opts)
	nc.engines = make([]*core.Engine, len(c.engines))
	for i, e := range c.engines {
		nc.engines[i] = e.WithOptions(opts)
	}
	return &nc
}

// Stats snapshots every shard's activity.
func (c *Cluster) Stats() []Stats {
	out := make([]Stats, len(c.engines))
	for sh := range out {
		out[sh] = Stats{
			Shard:              sh,
			Segments:           c.part.Size(sh),
			BoundarySegments:   c.part.BoundarySize(sh),
			RowsFetched:        c.m.rows[sh].Load(),
			CandidatesVerified: c.m.verified[sh].Load(),
			VerifyNS:           c.m.verifyNS[sh].Load(),
		}
	}
	return out
}

// PlansSharded and PlansFallback report how many plans ran scatter-gather
// vs fell back to single-engine execution (the EarlyStop policy).
func (c *Cluster) PlansSharded() int64  { return c.m.plans.Load() }
func (c *Cluster) PlansFallback() int64 { return c.m.fallback.Load() }

// PlansSlotFallback is always 0: a cluster is partitioned by space only,
// so no query window can outgrow a shard. It stays for callers that
// still read it.
func (c *Cluster) PlansSlotFallback() int64 { return 0 }

// ScratchStats snapshots the scratch-pool counters of the planner
// (index 0 — shared with the base engine it is a view of) and every
// shard engine (index 1..k). With no query in flight each snapshot must
// be Balanced(), including after a shard failed or panicked mid-query;
// an imbalance is a leaked pooled region or bitset on some error path.
func (c *Cluster) ScratchStats() []core.ScratchStats {
	out := make([]core.ScratchStats, 0, 1+len(c.engines))
	out = append(out, c.planner.ScratchStats())
	for _, e := range c.engines {
		out = append(out, e.ScratchStats())
	}
	return out
}

// Plan is a sharded (or, for lazy policies, planner-local) shared plan;
// it satisfies the same plan surface the facade uses for single-engine
// execution, with ResultAt running the gather step.
type Plan struct {
	c       *Cluster
	p       *core.SharedPlan
	sharded bool
	// failed holds the shards lost at scatter time (partial-results mode
	// only; fail-fast scatters never produce a plan with losses).
	failed []*ShardError
	// degraded describes the loss behind the most recent ResultAt, nil
	// when the answer was complete. Plans are single-goroutine by the
	// facade's ownership contract, so a plain field suffices.
	degraded *Degraded
}

// plan builds one deferred plan via build, scatter-verifies it, and
// wraps it. The EarlyStop policy verifies lazily per threshold — a wave
// whose probes depend on neighbouring outcomes cannot be split by
// segment owner — so it plans eagerly on the planner instead (bounding
// still routes through the shard slices) and skips the scatter.
func (c *Cluster) plan(ctx context.Context, build func(opts ...core.PlanOption) (*core.SharedPlan, error)) (*Plan, error) {
	if c.opts.EarlyStop {
		p, err := build()
		if err != nil {
			return nil, err
		}
		c.m.fallback.Add(1)
		return &Plan{c: c, p: p, sharded: false}, nil
	}
	p, err := build(core.DeferVerification())
	if err != nil {
		return nil, err
	}
	failed, err := c.scatter(ctx, p)
	if err != nil {
		p.Close()
		return nil, err
	}
	c.m.plans.Add(1)
	return &Plan{c: c, p: p, sharded: true, failed: failed}, nil
}

// PlanReach plans a forward s-query across the shards.
func (c *Cluster) PlanReach(ctx context.Context, q core.Query) (*Plan, error) {
	return c.plan(ctx, func(opts ...core.PlanOption) (*core.SharedPlan, error) {
		return c.planner.PlanReach(ctx, q, opts...)
	})
}

// PlanReverse plans a reverse s-query across the shards.
func (c *Cluster) PlanReverse(ctx context.Context, q core.Query) (*Plan, error) {
	return c.plan(ctx, func(opts ...core.PlanOption) (*core.SharedPlan, error) {
		return c.planner.PlanReverse(ctx, q, opts...)
	})
}

// PlanMulti plans an m-query (MQMB unified region) across the shards.
func (c *Cluster) PlanMulti(ctx context.Context, q core.MultiQuery) (*Plan, error) {
	return c.plan(ctx, func(opts ...core.PlanOption) (*core.SharedPlan, error) {
		return c.planner.PlanMulti(ctx, q, opts...)
	})
}

// PlanMultiSequential plans the sequential m-query baseline across the
// shards (each per-location child scatter-verifies independently).
func (c *Cluster) PlanMultiSequential(ctx context.Context, q core.MultiQuery) (*Plan, error) {
	return c.plan(ctx, func(opts ...core.PlanOption) (*core.SharedPlan, error) {
		return c.planner.PlanMultiSequential(ctx, q, opts...)
	})
}

// PlanReachES plans the exhaustive forward baseline across the shards.
func (c *Cluster) PlanReachES(ctx context.Context, q core.Query) (*Plan, error) {
	return c.plan(ctx, func(opts ...core.PlanOption) (*core.SharedPlan, error) {
		return c.planner.PlanReachES(ctx, q, opts...)
	})
}

// PlanReverseES plans the exhaustive reverse baseline across the shards.
func (c *Cluster) PlanReverseES(ctx context.Context, q core.Query) (*Plan, error) {
	return c.plan(ctx, func(opts ...core.PlanOption) (*core.SharedPlan, error) {
		return c.planner.PlanReverseES(ctx, q, opts...)
	})
}

// scatter ships the plan to the shards: every leaf plan's candidates are
// routed to their owners, each shard verifies its positions on its own
// engine, and the plan is sealed. Every shard with work passes its
// breaker first; the admitted shards then verify concurrently, or one
// after another when GOMAXPROCS is 1 and there is no parallelism to win.
// A shard that errors, panics, or overruns the per-shard budget becomes
// a ShardError: in default (fail-fast) mode the first one cancels the
// shards still running, releases the probe slots of those not yet run,
// and fails the scatter with a typed error; in partial-results mode the
// loss is recorded and the surviving shards' work still seals the plan,
// returning the failures for the gather step to skip.
func (c *Cluster) scatter(ctx context.Context, p *core.SharedPlan) ([]*ShardError, error) {
	began := time.Now()
	leaves := []*core.SharedPlan{p}
	if kids := p.Children(); len(kids) > 0 {
		leaves = kids
	}
	// scatterCtx cancels the surviving shards once a failure has already
	// decided the query's fate (fail-fast mode only).
	scatterCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	var (
		mu      sync.Mutex
		failed  []*ShardError
		failSet = map[int]bool{}
		fatal   *ShardError
	)
	// lose records a shard's loss once per scatter; in fail-fast mode the
	// first loss is fatal and cancels the shards still running.
	lose := func(se *ShardError) {
		mu.Lock()
		defer mu.Unlock()
		if !failSet[se.Shard] {
			failSet[se.Shard] = true
			failed = append(failed, se)
		}
		if !c.partial && fatal == nil {
			fatal = se
			cancelAll()
		}
	}
	// collateral reports whether a shard's error is a cancellation it did
	// not cause: the caller's context ended, or fail-fast already
	// cancelled the scatter. It says nothing about the shard's health.
	collateral := func(err error) bool {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return true
		}
		return errors.Is(err, context.Canceled) && scatterCtx.Err() != nil
	}
	inline := runtime.GOMAXPROCS(0) == 1
	k := len(c.engines)
	for _, leaf := range leaves {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !leaf.Deferred() {
			continue
		}
		cands := leaf.Candidates()
		if len(cands) == 0 {
			continue // nothing to verify (max region == min region)
		}
		// Exact-size position buckets: count per owner, then fill.
		counts := make([]int, k)
		for _, s := range cands {
			counts[c.part.Owner(s)]++
		}
		positions := make([][]int, k)
		for sh, n := range counts {
			if n > 0 {
				positions[sh] = make([]int, 0, n)
			}
		}
		for i, s := range cands {
			sh := c.part.Owner(s)
			positions[sh] = append(positions[sh], i)
		}
		// Breaker gate first, before any shard runs: a fail-fast
		// short-circuit must not leave shards running. A rejected shard was
		// never called, so its health record is untouched — the breaker
		// opening already counted the underlying failures.
		admitted := make([]bool, k)
		probes := make([]bool, k)
		active := 0
		for sh, pos := range positions {
			if len(pos) == 0 || failSet[sh] {
				continue
			}
			admit, probe := c.brk.allow(sh)
			if !admit {
				lose(&ShardError{Shard: sh, Err: ErrBreakerOpen})
				if fatal != nil {
					break
				}
				continue
			}
			admitted[sh], probes[sh] = true, probe
			active++
		}
		// Split the verification worker budget across the admitted shards:
		// each shard's VerifyOn runs its own verifyMany pool, and without
		// the split k concurrent pools would oversubscribe the CPUs k-fold
		// over what unsharded verification uses. Worker count never changes
		// results, only cost.
		budget := c.opts.VerifyWorkers
		if budget <= 0 {
			budget = runtime.GOMAXPROCS(0)
		}
		shardOpts := c.opts
		shardOpts.VerifyWorkers = max(1, budget/max(1, active))
		run := func(sh int) {
			err := c.verifyShard(scatterCtx, leaf, sh, c.engines[sh].WithOptions(shardOpts), positions[sh])
			switch {
			case err == nil:
				c.brk.record(sh, true, probes[sh])
			case collateral(err):
				c.brk.cancel(sh, probes[sh])
			default:
				se := &ShardError{Shard: sh, Err: err}
				c.hlth.record(sh, se)
				c.brk.record(sh, false, probes[sh])
				lose(se)
			}
		}
		var wg sync.WaitGroup
		for sh, ok := range admitted {
			switch {
			case !ok:
			case scatterCtx.Err() != nil:
				c.brk.cancel(sh, probes[sh]) // not run: return its probe slot
			case inline:
				run(sh)
			default:
				wg.Add(1)
				go func() {
					defer wg.Done()
					run(sh)
				}()
			}
		}
		wg.Wait()
		if fatal != nil {
			return nil, shardFailure(ctx, fatal)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if c.partial && len(failed) == k {
		return nil, xerr.Mark(xerr.KindShardFailure,
			fmt.Errorf("shard: all %d shards failed: %w", len(failed), failed[0]))
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].Shard < failed[j].Shard })
	p.FinishVerification(time.Since(began))
	return failed, nil
}

// verifyShard runs one shard's verification slice with the cluster's
// failure policy applied: the shard's injected fault (if any) fires
// first, the per-shard budget bounds the work, and a panic anywhere
// inside verification is recovered into an error.
func (c *Cluster) verifyShard(ctx context.Context, leaf *core.SharedPlan, sh int, eng *core.Engine, pos []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if c.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.budget)
		defer cancel()
	}
	t0 := time.Now()
	if err := c.injectedFault(ctx, sh); err != nil {
		return err
	}
	if err := leaf.VerifyOn(ctx, eng, pos); err != nil {
		return err
	}
	c.m.verified[sh].Add(int64(len(pos)))
	c.m.verifyNS[sh].Add(time.Since(t0).Nanoseconds())
	return nil
}

// injectedFault fires the shard's injected fault, if any.
func (c *Cluster) injectedFault(ctx context.Context, sh int) error {
	switch c.faults.get(sh) {
	case FaultError:
		return errors.New("injected shard fault")
	case FaultPanic:
		panic(fmt.Sprintf("injected shard panic (shard %d)", sh))
	case FaultHang:
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// shardFailure types one fatal shard error for the facade: a budget
// expiry surfaces as a timeout, everything else as a shard failure. A
// caller context that has itself ended wins — that is not the shard's
// fault — and stays a bare context error.
func shardFailure(ctx context.Context, se *ShardError) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if errors.Is(se.Err, context.DeadlineExceeded) {
		return xerr.Mark(xerr.KindTimeout, se)
	}
	return xerr.Mark(xerr.KindShardFailure, se)
}

// ResultAt runs the gather step for one probability threshold: one
// mergeable partial region per shard, folded with core.MergeRegions and
// stamped by the plan's Finalize — bit-identical to ResultAt on an
// unsharded engine. Lazy (EarlyStop) plans answer directly from the
// planner.
//
// Shards lost at scatter time are skipped, and a shard failing its
// gather step (error, recovered panic, injected fault, budget expiry)
// is — in partial-results mode — added to the loss; either way the
// surviving partials merge and the loss is reported via Degraded. In
// fail-fast mode a gather failure fails the query with a typed error.
func (pl *Plan) ResultAt(ctx context.Context, prob float64) (*core.Result, error) {
	if !pl.sharded {
		return pl.p.ResultAt(ctx, prob)
	}
	if err := core.ValidateProb(prob); err != nil {
		return nil, err
	}
	pl.degraded = nil
	k := pl.c.Shards()
	missing := append([]*ShardError(nil), pl.failed...)
	failSet := make(map[int]bool, len(missing))
	for _, se := range missing {
		failSet[se.Shard] = true
	}
	parts := make([]*core.Result, 0, k)
	for sh := 0; sh < k; sh++ {
		if failSet[sh] {
			continue
		}
		admit, probe := pl.c.brk.allow(sh)
		if !admit {
			// Short-circuited by the open breaker: the shard was never
			// called, so its health record is untouched.
			se := &ShardError{Shard: sh, Err: ErrBreakerOpen}
			if !pl.c.partial {
				return nil, shardFailure(ctx, se)
			}
			failSet[sh] = true
			missing = append(missing, se)
			continue
		}
		part, err := pl.partialOn(ctx, sh, prob)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
				pl.c.brk.cancel(sh, probe)
				return nil, ctxErr
			}
			se := &ShardError{Shard: sh, Err: err}
			pl.c.hlth.record(sh, se)
			pl.c.brk.record(sh, false, probe)
			if !pl.c.partial {
				return nil, shardFailure(ctx, se)
			}
			failSet[sh] = true
			missing = append(missing, se)
			continue
		}
		pl.c.brk.record(sh, true, probe)
		parts = append(parts, part)
	}
	if len(parts) == 0 {
		err := errors.New("shard: no shard answered")
		if len(missing) > 0 {
			err = fmt.Errorf("shard: no shard answered: %w", missing[0])
		}
		return nil, xerr.Mark(xerr.KindShardFailure, err)
	}
	res := core.MergeRegions(true, parts...)
	pl.p.Finalize(res)
	if len(missing) > 0 {
		sort.Slice(missing, func(i, j int) bool { return missing[i].Shard < missing[j].Shard })
		d := &Degraded{Failures: missing}
		owned, total := 0, 0
		for sh := 0; sh < k; sh++ {
			total += pl.c.part.Size(sh)
			if failSet[sh] {
				d.MissingShards = append(d.MissingShards, sh)
			} else {
				owned += pl.c.part.Size(sh)
			}
		}
		if total > 0 {
			d.Coverage = float64(owned) / float64(total)
		}
		pl.degraded = d
	}
	return res, nil
}

// partialOn gathers one shard's partial with the cluster's failure
// policy applied: injected fault first, per-shard budget, panic
// recovery.
func (pl *Plan) partialOn(ctx context.Context, sh int, prob float64) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if pl.c.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pl.c.budget)
		defer cancel()
	}
	if err := pl.c.injectedFault(ctx, sh); err != nil {
		return nil, err
	}
	return pl.p.PartialAt(ctx, prob, pl.c.part.Owned(sh))
}

// Degraded reports the loss behind the plan's most recent ResultAt: nil
// for a complete answer, else the missing shards and surviving
// ownership coverage. The facade surfaces it on the result.
func (pl *Plan) Degraded() *Degraded { return pl.degraded }

// RowStats reports the plan's row-source activity (see
// core.SharedPlan.RowStats).
func (pl *Plan) RowStats() conindex.PinStats { return pl.p.RowStats() }

// Rebase resets the plan's cost attribution (see core.SharedPlan.Rebase).
func (pl *Plan) Rebase() { pl.p.Rebase() }

// Close releases the plan.
func (pl *Plan) Close() { pl.p.Close() }

// Sharded reports whether the plan ran scatter-gather (false: EarlyStop
// fallback on the planner).
func (pl *Plan) Sharded() bool { return pl.sharded }

// String names the cluster for logs.
func (c *Cluster) String() string {
	return fmt.Sprintf("shard.Cluster(k=%d)", c.part.Shards())
}
