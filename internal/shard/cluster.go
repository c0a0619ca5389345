package shard

import (
	"context"
	"fmt"
	"runtime"
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
}

// metrics holds the cluster's per-shard activity counters, shared by
// every WithOptions view.
type metrics struct {
	rows     []atomic.Int64 // Con-Index rows routed to the shard's slice
	verified []atomic.Int64 // candidates scatter-verified on the shard
	verifyNS []atomic.Int64 // wall-clock the shard spent verifying
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

// PlansSlotFallback is always 0: a cluster is partitioned by space only,
// so no query window can outgrow a shard. It stays for callers that
// still read it.
func (c *Cluster) PlansSlotFallback() int64 { return 0 }

// ScratchStats snapshots the scratch-pool counters of the planner
// (index 0 — shared with the base engine it is a view of) and every
// shard engine (index 1..k). With no query in flight each snapshot must
// be Balanced(), including after a shard failed mid-query; an
// imbalance is a leaked pooled region or bitset on some error path.
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
		return &Plan{c: c, p: p, sharded: false}, nil
	}
	p, err := build(core.DeferVerification())
	if err != nil {
		return nil, err
	}
	if err := c.scatter(ctx, p); err != nil {
		p.Close()
		return nil, err
	}
	return &Plan{c: c, p: p, sharded: true}, nil
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
// engine, and the plan is sealed. The shards verify concurrently, or one
// after another when GOMAXPROCS is 1 and there is no parallelism to win.
// The first shard to fail cancels the others and its error fails the
// scatter: it is the error the unsharded engine returns for the same
// cause, so it carries the same kind. A caller context that has ended
// wins and stays a bare context error.
func (c *Cluster) scatter(ctx context.Context, p *core.SharedPlan) error {
	began := time.Now()
	leaves := []*core.SharedPlan{p}
	if kids := p.Children(); len(kids) > 0 {
		leaves = kids
	}
	scatterCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		once  sync.Once
		first error
	)
	// fail keeps the first shard error and cancels the shards still
	// running; their cancellations come after it and are dropped.
	fail := func(err error) {
		once.Do(func() {
			first = err
			cancel()
		})
	}
	inline := runtime.GOMAXPROCS(0) == 1
	k := len(c.engines)
	for _, leaf := range leaves {
		if !leaf.Deferred() {
			continue
		}
		cands := leaf.Candidates()
		if len(cands) == 0 {
			continue // nothing to verify (max region == min region)
		}
		// Exact-size position buckets: count per owner, then fill.
		counts := make([]int, k)
		active := 0
		for _, s := range cands {
			sh := c.part.Owner(s)
			if counts[sh] == 0 {
				active++
			}
			counts[sh]++
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
		// Split the verification worker budget across the active shards:
		// each shard's VerifyOn runs its own verifyMany pool, and without
		// the split k concurrent pools would oversubscribe the CPUs k-fold
		// over what unsharded verification uses. Worker count never changes
		// results, only cost.
		budget := c.opts.VerifyWorkers
		if budget <= 0 {
			budget = runtime.GOMAXPROCS(0)
		}
		shardOpts := c.opts
		shardOpts.VerifyWorkers = max(1, budget/active)
		var wg sync.WaitGroup
		for sh, pos := range positions {
			if len(pos) == 0 || scatterCtx.Err() != nil {
				continue
			}
			run := func() {
				if err := c.verifyShard(scatterCtx, leaf, sh, c.engines[sh].WithOptions(shardOpts), pos); err != nil {
					fail(err)
				}
			}
			if inline {
				run()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
		if first != nil {
			return first
		}
	}
	p.FinishVerification(time.Since(began))
	return nil
}

// verifyShard runs one shard's verification slice. A panic inside it is
// recovered into a KindInternal error: on a scatter goroutine it would
// otherwise take the process down rather than fail the one query.
func (c *Cluster) verifyShard(ctx context.Context, leaf *core.SharedPlan, sh int, eng *core.Engine, pos []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = xerr.Markf(xerr.KindInternal, "shard %d: verification panicked: %v", sh, r)
		}
	}()
	t0 := time.Now()
	if err := leaf.VerifyOn(ctx, eng, pos); err != nil {
		return fmt.Errorf("shard %d: %w", sh, err)
	}
	c.m.verified[sh].Add(int64(len(pos)))
	c.m.verifyNS[sh].Add(time.Since(t0).Nanoseconds())
	return nil
}

// ResultAt runs the gather step for one probability threshold: one
// mergeable partial region per shard, folded with core.MergeRegions and
// stamped by the plan's Finalize — bit-identical to ResultAt on an
// unsharded engine. Lazy (EarlyStop) plans answer directly from the
// planner.
func (pl *Plan) ResultAt(ctx context.Context, prob float64) (*core.Result, error) {
	if !pl.sharded {
		return pl.p.ResultAt(ctx, prob)
	}
	if err := core.ValidateProb(prob); err != nil {
		return nil, err
	}
	parts := make([]*core.Result, 0, pl.c.Shards())
	for sh := range pl.c.Shards() {
		part, err := pl.p.PartialAt(ctx, prob, pl.c.part.Owned(sh))
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	res := core.MergeRegions(true, parts...)
	pl.p.Finalize(res)
	return res, nil
}

// Rebase resets the plan's cost attribution (see core.SharedPlan.Rebase).
func (pl *Plan) Rebase() { pl.p.Rebase() }

// Close releases the plan.
func (pl *Plan) Close() { pl.p.Close() }

// String names the cluster for logs.
func (c *Cluster) String() string {
	return fmt.Sprintf("shard.Cluster(k=%d)", c.part.Shards())
}
