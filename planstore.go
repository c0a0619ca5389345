package streach

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"streach/internal/core"
)

// queryPlan is the shared-plan surface the facade executes against —
// satisfied by both core.SharedPlan (single engine) and shard.Plan
// (scatter-gather cluster) — so the plan store treats sharded and
// unsharded plans identically. A plan is single-goroutine: the store
// serialises its use (planEntry.resultAt).
type queryPlan interface {
	ResultAt(ctx context.Context, prob float64) (*core.Result, error)
	Rebase()
	Close()
}

// planKey identifies one shared plan: the request's shape and the
// version of the data it is planned over. A live ingest append, a
// compaction or a Con-Index speed fold moves the version, so a plan
// built before it is never found for a query issued after it.
type planKey struct {
	shape  string // shapeKey of the request
	data   uint64 // stindex.Index.DataVersion
	conGen uint64 // conindex.Index.InvalidationGen
}

// planKey keys a validated reachability request for the plan store.
func (s *System) planKey(req Request, qo queryOptions) planKey {
	return planKey{shape: shapeKey(req, qo), data: s.st.DataVersion(), conGen: s.con.InvalidationGen()}
}

// shapeKey is the binary form of everything that determines a request's
// shared plan: kind, algorithm, the result-affecting engine options
// (optionBits), start, window and each location's float bits. Prob is
// deliberately absent — it is the axis a plan is shared across — and so
// is VerifyWorkers, which changes cost, not results. The shape ring
// counts frequency on the same string.
func shapeKey(req Request, qo queryOptions) string {
	var stack [3 + 16 + 16*planShapeMaxLocs]byte
	b := append(stack[:0], byte(req.Kind), byte(qo.algorithm), optionBits(qo.engine))
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Start))
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Duration))
	for _, l := range req.Locations {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(l.Lat))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(l.Lng))
	}
	return string(b)
}

// planStoreCap is the number of plans the store parks by default;
// EnableWarmPlanning grows it.
const planStoreCap = 32

// planStore is the one keyed, single-flight shared-plan store behind Do
// and WarmPlans. The first caller of a key builds its plan under
// its own context; callers arriving during the build wait for it rather
// than build their own, and callers arriving after find it parked. A
// plan no caller holds is parked in an LRU of cap entries; a held plan
// is never closed — not by eviction, re-sharding or Close — until its
// last holder releases it.
type planStore struct {
	mu      sync.Mutex
	cap     int
	entries map[planKey]*planEntry
	idle    *list.List // entries no caller holds, most recent first
}

// planEntry is one plan, built or being built. plan and err are written
// before ready is closed and read only after it.
type planEntry struct {
	key   planKey
	ready chan struct{}
	plan  queryPlan
	err   error

	// Guarded by planStore.mu.
	refs    int           // callers holding the entry
	idleEl  *list.Element // its place in idle while no caller holds it
	dropped bool          // out of entries; closed by its last release

	// mu serialises Rebase and ResultAt on the single-goroutine plan. The
	// builder holds it from the entry's creation to its own answer.
	mu sync.Mutex
}

// acquired says how acquire came by its plan.
type acquired int

const (
	planHit       acquired = iota // found parked
	planMiss                      // built by this caller
	planCoalesced                 // waited for another caller's build
)

// errBuildPanicked is what waiters see when the build they waited for
// panicked; the panic itself goes on up the builder's stack.
var errBuildPanicked = errors.New("streach: plan build panicked")

func newPlanStore() *planStore {
	return &planStore{cap: planStoreCap, entries: map[planKey]*planEntry{}, idle: list.New()}
}

// acquire returns the entry for key, held until release, building its
// plan with build when nobody has. The builder gets the entry with its
// mutex held, to be given up by its own resultAt (or, if it answers
// nothing, by itself). A waiter whose own ctx ends stops
// waiting with ctx's error. A build that fails is dropped before its
// waiters wake, so its error reaches each of them once and is never
// stored — except that a waiter whose builder died of the builder's own
// context, while the waiter's is live, tries again, and may build.
func (c *planStore) acquire(ctx context.Context, key planKey, build func(context.Context) (queryPlan, error)) (*planEntry, acquired, error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &planEntry{key: key, ready: make(chan struct{}), refs: 1}
			e.mu.Lock() // the builder answers first; see resultAt
			c.entries[key] = e
			c.mu.Unlock()
			c.build(ctx, e, build)
			if e.err != nil {
				e.mu.Unlock()
				c.release(e)
				return nil, planMiss, e.err
			}
			return e, planMiss, nil
		}
		e.refs++
		if e.idleEl != nil {
			c.idle.Remove(e.idleEl)
			e.idleEl = nil
		}
		c.mu.Unlock()
		how := planHit
		select {
		case <-e.ready:
		default:
			how = planCoalesced
			select {
			case <-e.ready:
			case <-ctx.Done():
				c.release(e)
				return nil, how, ctx.Err()
			}
		}
		if e.err == nil {
			return e, how, nil
		}
		c.release(e)
		if !isContextErr(e.err) || ctx.Err() != nil {
			return nil, how, e.err
		}
	}
}

// build runs the builder's plan construction. A failed build — an error
// or a panic — leaves the store before ready wakes the waiters, so none
// of them can find it again.
func (c *planStore) build(ctx context.Context, e *planEntry, build func(context.Context) (queryPlan, error)) {
	e.err = errBuildPanicked // overwritten unless build panics
	defer func() {
		if e.err != nil {
			c.mu.Lock()
			c.drop(e)
			c.mu.Unlock()
		}
		close(e.ready)
	}()
	e.plan, e.err = build(ctx)
}

// release gives back one hold on e. The last release parks the plan at
// the front of the LRU, evicting the least recently used parked plans
// beyond capacity, or closes it if it has been dropped meanwhile.
func (c *planStore) release(e *planEntry) {
	var closing []queryPlan
	c.mu.Lock()
	if e.refs--; e.refs == 0 && e.err == nil {
		if e.dropped {
			closing = append(closing, e.plan)
		} else {
			e.idleEl = c.idle.PushFront(e)
			for len(c.entries) > c.cap && c.idle.Len() > 0 {
				old := c.idle.Back().Value.(*planEntry)
				c.drop(old)
				closing = append(closing, old.plan)
			}
		}
	}
	c.mu.Unlock()
	for _, p := range closing {
		p.Close()
	}
}

// drop takes e out of the store; the caller holds c.mu.
func (c *planStore) drop(e *planEntry) {
	if e.dropped {
		return
	}
	e.dropped = true
	delete(c.entries, e.key)
	if e.idleEl != nil {
		c.idle.Remove(e.idleEl)
		e.idleEl = nil
	}
}

// clear drops every plan — the invalidation hook for Close and
// re-sharding. Parked plans close now, held ones at their last release.
func (c *planStore) clear() {
	var closing []queryPlan
	c.mu.Lock()
	for _, e := range c.entries {
		c.drop(e)
		if e.refs == 0 {
			closing = append(closing, e.plan)
		}
	}
	c.mu.Unlock()
	for _, p := range closing {
		p.Close()
	}
}

// grow raises the capacity to at least n; it never shrinks. Warming N
// shapes into a smaller LRU would evict its own work, so
// EnableWarmPlanning grows the store to hold what it warms.
func (c *planStore) grow(n int) {
	c.mu.Lock()
	c.cap = max(c.cap, n)
	c.mu.Unlock()
}

// resultAt answers one threshold off the entry's plan for a caller that
// acquired it how. The builder holds e.mu from the entry's creation, so
// its answer comes before any other caller's and carries the build's
// cost. Every other caller locks e.mu and rebases the plan's cost
// attribution first, so it is charged only for its own work.
func (e *planEntry) resultAt(ctx context.Context, prob float64, how acquired) (*core.Result, error) {
	if how != planMiss {
		e.mu.Lock()
	}
	defer e.mu.Unlock()
	if how != planMiss {
		e.plan.Rebase()
	}
	return e.plan.ResultAt(ctx, prob)
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
