package streach

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"streach/internal/conindex"
	"streach/internal/stindex"
	"streach/internal/storage"
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
	idx := DefaultIndexConfig()
	idx.PlanCache = -1
	idx.PoolPages = 4
	s, err := assembleSystem(net, ds, ds.Stats(), st, con, idx)
	if err != nil {
		t.Fatal(err)
	}
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
	for i, st := range s.ScratchStats() {
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
//   - hang: slow store reads, bounded by WithDeadlineBudget → Timeout,
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
		want     ErrorCode
		sentinel error // errors.Is target, when the fault has one
		bare     bool  // the error is the bare sentinel, not a *streach.Error
		layouts  []int
	}{
		{"error", func() {
			fs.Arm(storage.FaultRule{Op: storage.OpRead, Mode: storage.ModeError})
		}, nil, Internal, storage.ErrInjected, false, []int{1, 4}},
		{"hang", func() {
			fs.Arm(storage.FaultRule{Op: storage.OpRead, Mode: storage.ModeLatency, Latency: 20 * time.Millisecond})
		}, []Option{WithDeadlineBudget(50 * time.Millisecond)}, Timeout, context.DeadlineExceeded, true, []int{1, 4}},
		{"panic", func() { ps.armed.Store(true) },
			// One verification worker per shard keeps every store read
			// on a goroutine the scatter recovers.
			[]Option{WithVerifyWorkers(1)}, Internal, nil, false, []int{4}},
	}
	before := runtime.NumGoroutine()
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, k := range v.layouts {
				layout(k)
				v.arm()
				_, err := s.Do(ctx, req, v.opts...)
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
// mid-DoBatch must not leak pooled bounding regions or bitsets — the
// error paths through plan construction, scatter, and release must
// return everything they checked out, and the pool must keep serving
// healthy traffic afterwards.
func TestScratchPoolIntegrityAcrossShardFailure(t *testing.T) {
	s, fs, ps := faultySystem(t)
	if err := s.Shard(4); err != nil {
		t.Fatal(err)
	}
	q := testQuery(s)

	// A batch with shareable groups (same window, different thresholds)
	// plus a distinct window, so both the grouped and ungrouped DoBatch
	// paths run.
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
	for _, res := range s.DoBatch(ctx, reqs, opts...) {
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
		for _, res := range s.DoBatch(ctx, reqs, opts...) {
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
	for _, res := range s.DoBatch(cancelled, reqs, opts...) {
		if res.Err == nil {
			t.Fatal("cancelled batch returned a result")
		}
	}
	assertScratchBalanced(t, s, "after cancelled batch")

	// And the pool still serves healthy traffic.
	for _, res := range s.DoBatch(ctx, reqs, opts...) {
		if res.Err != nil {
			t.Fatalf("healed batch: %v", res.Err)
		}
	}
	assertScratchBalanced(t, s, "after healed batch")
}
