package streach

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streach/internal/conindex"
	"streach/internal/core"
	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/storage"
	"streach/internal/traj"
)

// panicStore is a page store whose reads panic while armed: the fault a
// storage driver with a bug would raise, which the shard scatter must
// turn into a typed Internal error rather than a dead process.
type panicStore struct {
	storage.Store
	armed atomic.Bool
}

func (p *panicStore) ReadPage(id storage.PageID, buf []byte) error {
	if p.armed.Load() {
		panic("page read panicked")
	}
	return p.Store.ReadPage(id, buf)
}

// faultySystem is smallSystem's world with its ST-Index reloaded over a
// storage.FaultStore (behind a panicStore) and a pool of a few pages, so
// query verification reads the store and meets whatever is armed. The
// system is unsharded and closed when t ends.
func faultySystem(t *testing.T) (*System, *storage.FaultStore, *panicStore) {
	t.Helper()
	base := smallSystem(t)
	net, ds := base.Network(), base.Dataset()
	mem := storage.NewMemStore()
	built, err := stindex.Build(net, ds, stindex.Config{SlotSeconds: 300, Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	var meta bytes.Buffer
	if err := built.SaveMeta(&meta); err != nil {
		t.Fatal(err)
	}
	if err := built.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFaultStore(mem, storage.Scenario{})
	ps := &panicStore{Store: fs}
	st, err := stindex.LoadIndex(net, stindex.Config{SlotSeconds: 300, PoolPages: 4, Store: ps}, &meta)
	if err != nil {
		t.Fatal(err)
	}
	con, err := conindex.Build(net, ds, conindex.Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	s, err := assembleSystem(net, ds, ds.Stats(), st, con)
	if err != nil {
		t.Fatal(err)
	}
	s.plans.cap = 0 // park no plan: the scratch checks count every region
	t.Cleanup(func() { s.Close() })
	return s, fs, ps
}

// assertScratchBalanced checks that every engine scratch pool in the
// system — the base engine, the cluster planner and each shard engine —
// has returned every pooled region and bitset it checked out. With no
// query in flight, an imbalance is a leak on some error, panic, or
// cancellation path.
func assertScratchBalanced(t *testing.T, s *System, when string) {
	t.Helper()
	stats := []core.ScratchStats{s.engine.ScratchStats()}
	if c := s.cluster.Load(); c != nil {
		stats = append(stats, c.ScratchStats()...)
	}
	for i, st := range stats {
		if !st.Balanced() {
			t.Fatalf("%s: scratch pool %d leaked: %+v", when, i, st)
		}
	}
}

// assertNoGoroutineGrowth waits briefly for the goroutine count to fall
// back to before: a failed scatter must not leave a shard behind.
func assertNoGoroutineGrowth(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosTypedErrorCodes pins the facade's failure contract on a
// sharded system: a real page-store fault under one of 4 shards fails Do
// with the error code the unsharded system returns for the same fault,
// and no goroutine outlives the failures.
//
//   - error: a store read error, as a *streach.Error that still wraps
//     the store's sentinel;
//   - hang: slow store reads, bounded by a context deadline → Timeout,
//     returned as the bare context.DeadlineExceeded on both layouts (a
//     context error is never wrapped; CodeOf classifies it);
//   - panic: a store read that panics, recovered by the shard scatter →
//     Internal. Only the sharded layout runs it: the unsharded engine
//     verifies on the caller's goroutine and does not recover.
func TestChaosTypedErrorCodes(t *testing.T) {
	s, fs, ps := faultySystem(t)
	req := ReachRequest(testQuery(s).Locations[0], 11*time.Hour, 10*time.Minute, 0.2)
	ctx := context.Background()
	layout := func(k int) {
		t.Helper()
		if err := s.Shard(k); err != nil {
			t.Fatal(err)
		}
	}
	// A healthy answer on each layout first: it decodes the query's
	// time lists into the cache, so once a fault is armed planning
	// succeeds and the first store read is a shard's verification.
	for _, k := range []int{1, 4} {
		layout(k)
		if _, err := s.Do(ctx, req); err != nil {
			t.Fatalf("healthy answer at %d shards: %v", k, err)
		}
	}

	variants := []struct {
		name     string
		arm      func()
		opts     []Option
		timeout  time.Duration // a context deadline for the query, when non-zero
		want     ErrorCode
		sentinel error // errors.Is target, when the fault has one
		bare     bool  // the error is the bare sentinel, not a *streach.Error
		layouts  []int
	}{
		{"error", func() {
			fs.Arm(storage.FaultRule{Op: storage.OpRead, Mode: storage.ModeError})
		}, nil, 0, Internal, storage.ErrInjected, false, []int{1, 4}},
		{"hang", func() {
			fs.Arm(storage.FaultRule{Op: storage.OpRead, Mode: storage.ModeLatency, Latency: 20 * time.Millisecond})
		}, nil, 50 * time.Millisecond, Timeout, context.DeadlineExceeded, true, []int{1, 4}},
		{"panic", func() { ps.armed.Store(true) },
			// One verification worker per shard keeps every store read
			// on a goroutine the scatter recovers.
			[]Option{WithVerifyWorkers(1)}, 0, Internal, nil, false, []int{4}},
	}
	before := runtime.NumGoroutine()
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, k := range v.layouts {
				layout(k)
				v.arm()
				qctx, cancel := ctx, context.CancelFunc(func() {})
				if v.timeout > 0 {
					qctx, cancel = context.WithTimeout(ctx, v.timeout)
				}
				_, err := s.Do(qctx, req, v.opts...)
				cancel()
				fs.Clear()
				ps.armed.Store(false)
				if err == nil {
					t.Fatalf("%d shards: Do succeeded despite the store fault", k)
				}
				if v.bare {
					if err != v.sentinel {
						t.Fatalf("%d shards: error %v (%T), want the bare %v", k, err, err, v.sentinel)
					}
				} else if te := (*Error)(nil); !errors.As(err, &te) || te.Code != v.want {
					t.Fatalf("%d shards: error %v (%T) is not a *streach.Error with code %v", k, err, err, v.want)
				}
				if CodeOf(err) != v.want {
					t.Fatalf("%d shards: code = %v (%v), want %v", k, CodeOf(err), err, v.want)
				}
				if v.sentinel != nil && !errors.Is(err, v.sentinel) {
					t.Fatalf("%d shards: error %v does not wrap %v", k, err, v.sentinel)
				}
				assertScratchBalanced(t, s, v.name)
				// The system still answers once the fault is gone.
				if _, err := s.Do(ctx, req); err != nil {
					t.Fatalf("%d shards: healthy answer after the fault: %v", k, err)
				}
			}
		})
	}
	assertNoGoroutineGrowth(t, before)
}

// TestScratchPoolIntegrityAcrossShardFailure is the pool-ownership
// regression test: a shard failing (store error and recovered panic)
// under a batch of concurrent requests must not leak pooled bounding regions or bitsets — the
// error paths through plan construction, scatter, and release must
// return everything they checked out, and the pool must keep serving
// healthy traffic afterwards.
func TestScratchPoolIntegrityAcrossShardFailure(t *testing.T) {
	s, fs, ps := faultySystem(t)
	if err := s.Shard(4); err != nil {
		t.Fatal(err)
	}
	q := testQuery(s)

	// A batch with one shared shape (same window, different thresholds)
	// plus a distinct window, so both shared and unshared plans run.
	reqs := []Request{
		ReachRequest(q.Locations[0], 11*time.Hour, 10*time.Minute, 0.2),
		ReachRequest(q.Locations[0], 11*time.Hour, 10*time.Minute, 0.4),
		ReachRequest(q.Locations[0], 11*time.Hour, 10*time.Minute, 0.6),
		ReachRequest(q.Locations[0], 11*time.Hour+30*time.Minute, 10*time.Minute, 0.3),
	}
	// One verification worker per shard keeps a panicking store read on
	// a goroutine the scatter recovers.
	opts := []Option{WithVerifyWorkers(1)}
	ctx := context.Background()

	// The healthy batch also decodes the batch's time lists into the
	// cache, so the armed faults below first meet a shard's verification.
	for _, res := range doAll(ctx, s, reqs, opts...) {
		if res.Err != nil {
			t.Fatalf("healthy batch: %v", res.Err)
		}
	}
	assertScratchBalanced(t, s, "after healthy batch")

	faults := []struct {
		name string
		arm  func()
	}{
		{"error", func() { fs.Arm(storage.FaultRule{Op: storage.OpRead, Mode: storage.ModeError}) }},
		{"panic", func() { ps.armed.Store(true) }},
	}
	for _, f := range faults {
		f.arm()
		failures := 0
		for _, res := range doAll(ctx, s, reqs, opts...) {
			if res.Err != nil {
				failures++
				if CodeOf(res.Err) != Internal {
					t.Fatalf("fault %s: code = %v, want Internal (%v)", f.name, CodeOf(res.Err), res.Err)
				}
			}
		}
		fs.Clear()
		ps.armed.Store(false)
		if failures == 0 {
			t.Fatalf("fault %s: no request failed; the faulted store was never read", f.name)
		}
		assertScratchBalanced(t, s, "after faulted batch ("+f.name+")")
	}

	// Cancellation mid-batch is the third error path worth pinning.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, res := range doAll(cancelled, s, reqs, opts...) {
		if res.Err == nil {
			t.Fatal("cancelled batch returned a result")
		}
	}
	assertScratchBalanced(t, s, "after cancelled batch")

	// And the pool still serves healthy traffic.
	for _, res := range doAll(ctx, s, reqs, opts...) {
		if res.Err != nil {
			t.Fatalf("healed batch: %v", res.Err)
		}
	}
	assertScratchBalanced(t, s, "after healed batch")
}

// TestScratchBalancedAfterDeadlineFlood: on a 4-shard system with the
// default plan store, a concurrent flood of distinct shapes, half of them
// under a deadline too short to finish, leaves every scratch pool
// balanced once Close has closed the plans the store parks.
func TestScratchBalancedAfterDeadlineFlood(t *testing.T) {
	s := variant(t, vcfg{shards: 4})
	loc := testQuery(s).Locations[0]
	var reqs []Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, ReachRequest(loc, 10*time.Hour+time.Duration(i)*time.Minute, 10*time.Minute, 0.2))
	}
	for _, res := range doAll(context.Background(), s, reqs[:8]) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	short, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	doAll(short, s, reqs[8:])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertScratchBalanced(t, s, "after the flood and Close")
}

// TestNewSystemFromDataRejectsOutOfRange: a visit on a segment the
// network does not have fails NewSystemFromData with the ST-Index
// builder's error naming the trajectory. Both builds have returned by
// then: no build goroutine is left.
func TestNewSystemFromDataRejectsOutOfRange(t *testing.T) {
	net := smallSystem(t).Network()
	bad := roadnet.SegmentID(net.NumSegments())
	ds := &traj.Dataset{Days: 2, Matched: []traj.MatchedTrajectory{
		{Taxi: 1, Day: 0, Visits: []traj.Visit{{Segment: 0, EnterMs: 1000, ExitMs: 2000, Speed: 9}}},
		{Taxi: 2, Day: 1, Visits: []traj.Visit{{Segment: bad, EnterMs: 1000, ExitMs: 2000, Speed: 9}}},
	}}
	build := func() {
		t.Helper()
		s, err := NewSystemFromData(net, ds, DefaultIndexConfig())
		if err == nil {
			s.Close()
			t.Fatal("NewSystemFromData accepted a visit past the network")
		}
		want := fmt.Sprintf("streach: build ST-Index: stindex: trajectory 1 visit 0: segment %d outside [0, %d)", bad, bad)
		if err.Error() != want {
			t.Fatalf("error %q, want %q", err, want)
		}
	}
	build() // the first call may start runtime helpers of its own
	goroutines := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		build()
	}
	assertNoGoroutineGrowth(t, goroutines)
}

// TestNewSystemFromDataRejectsBadVisits: a visit whose speed is NaN,
// infinite or negative, or that exits before it enters, fails
// NewSystemFromData with an error naming the trajectory and the visit,
// instead of putting NaN into the Con-Index's speed bounds. A visit
// entering before midnight and one leaving after the next are kept.
func TestNewSystemFromDataRejectsBadVisits(t *testing.T) {
	net := smallSystem(t).Network()
	good := traj.Visit{Segment: 0, EnterMs: 1000, ExitMs: 2000, Speed: 9}
	for _, tc := range []struct {
		name string
		bad  traj.Visit
		want string
	}{
		{"NaN speed", traj.Visit{Segment: 1, EnterMs: 1000, ExitMs: 2000, Speed: float32(math.NaN())}, "trajectory 1 visit 1: speed NaN m/s"},
		{"infinite speed", traj.Visit{Segment: 1, EnterMs: 1000, ExitMs: 2000, Speed: float32(math.Inf(1))}, "trajectory 1 visit 1: speed +Inf m/s"},
		{"negative speed", traj.Visit{Segment: 1, EnterMs: 1000, ExitMs: 2000, Speed: -3}, "trajectory 1 visit 1: speed -3 m/s"},
		{"exit before entry", traj.Visit{Segment: 1, EnterMs: 1000, ExitMs: -5, Speed: 9}, "trajectory 1 visit 1: exit -5 ms before entry 1000 ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := &traj.Dataset{Days: 2, Matched: []traj.MatchedTrajectory{
				{Taxi: 1, Day: 0, Visits: []traj.Visit{good}},
				{Taxi: 2, Day: 1, Visits: []traj.Visit{good, tc.bad}},
			}}
			s, err := NewSystemFromData(net, ds, DefaultIndexConfig())
			if err == nil {
				s.Close()
				t.Fatal("NewSystemFromData accepted the visit")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want one containing %q", err, tc.want)
			}
		})
	}
	ds := &traj.Dataset{Days: 2, Matched: []traj.MatchedTrajectory{
		{Taxi: 1, Day: 0, Visits: []traj.Visit{{Segment: 0, EnterMs: -60_000, ExitMs: 2000, Speed: 0}}},
		{Taxi: 2, Day: 1, Visits: []traj.Visit{{Segment: 1, EnterMs: 86_000_000, ExitMs: 86_500_000, Speed: 9}}},
	}}
	s, err := NewSystemFromData(net, ds, DefaultIndexConfig())
	if err != nil {
		t.Fatalf("visits across midnight and at speed 0: %v", err)
	}
	s.Close()
}
