package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"streach/internal/core"
	"streach/internal/stindex"
	"streach/internal/storage"
	"streach/internal/xerr"
)

// faultyIndex rebuilds the fixture's ST-Index over a storage.FaultStore:
// built over a MemStore, its meta saved and its pages flushed, then
// loaded back through the fault layer with a pool of a few pages, so
// candidate verification reads the store and meets whatever is armed.
func faultyIndex(t *testing.T) (*stindex.Index, *storage.FaultStore) {
	t.Helper()
	f := getFixture(t)
	mem := storage.NewMemStore()
	built, err := stindex.Build(f.net, f.ds, stindex.Config{SlotSeconds: 300, Store: mem})
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
	st, err := stindex.LoadIndex(f.net, stindex.Config{SlotSeconds: 300, PoolPages: 4, Store: fs}, &meta)
	if err != nil {
		t.Fatal(err)
	}
	return st, fs
}

// TestFailFastTypedErrors: a sharded query fails exactly as the
// unsharded engine does. Each case runs at GOMAXPROCS 1 (shards verify
// inline) and 2 (shards verify on goroutines) and ends with every
// scratch pool balanced:
//
//   - error: a real storage read error fails the plain engine and the
//     4-shard cluster with errors of the same kind, wrapping the store's
//     sentinel;
//   - hang: a shard blocked in slow store reads is released by the
//     caller cancelling mid-scatter, and the scatter returns the bare
//     context error;
//   - panic: a shard handed an out-of-range candidate position panics,
//     and the panic is recovered into a KindInternal error.
//
// No case leaves a scatter goroutine behind.
func TestFailFastTypedErrors(t *testing.T) {
	f := getFixture(t)
	st, fs := faultyIndex(t)
	q := core.Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	eng, err := core.NewEngine(st, f.con, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(st, f.con, core.Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A healthy answer first: it decodes the query's start lists into
	// the time-list cache, so once a fault is armed planning succeeds and
	// the first store read is a shard's verification.
	if _, err := oneShot(bg, eng.PlanReach, q, 0.2); err != nil {
		t.Fatal(err)
	}
	sharded := func(ctx context.Context) error {
		pl, err := c.PlanReach(ctx, q)
		if err != nil {
			return err
		}
		defer pl.Close()
		_, err = pl.ResultAt(ctx, 0.2)
		return err
	}
	// balanced checks every scratch pool and that the goroutine count is
	// back to the one taken before the case ran.
	balanced := func(t *testing.T, goroutines int) {
		t.Helper()
		stats := append([]core.ScratchStats{eng.ScratchStats()}, c.ScratchStats()...)
		for i, s := range stats {
			if !s.Balanced() {
				t.Fatalf("scratch pool %d leaked: %+v", i, s)
			}
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines grew %d -> %d", goroutines, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"error", func(t *testing.T) {
			fs.Arm(storage.FaultRule{Op: storage.OpRead, Mode: storage.ModeError})
			defer fs.Clear()
			_, want := oneShot(bg, eng.PlanReach, q, 0.2)
			got := sharded(bg)
			if want == nil || got == nil {
				t.Fatalf("engine error %v, cluster error %v: both must fail", want, got)
			}
			if !errors.Is(want, storage.ErrInjected) || !errors.Is(got, storage.ErrInjected) {
				t.Fatalf("engine error %v, cluster error %v: both must wrap the store's error", want, got)
			}
			if xerr.KindOf(got) != xerr.KindOf(want) {
				t.Fatalf("cluster error kind %v (%v), engine %v (%v)", xerr.KindOf(got), got, xerr.KindOf(want), want)
			}
			if !strings.HasPrefix(got.Error(), "shard ") {
				t.Fatalf("cluster error %q did not come from a shard's verification", got)
			}
		}},
		{"hang", func(t *testing.T) {
			fs.Arm(storage.FaultRule{Op: storage.OpRead, Mode: storage.ModeLatency, Latency: 20 * time.Millisecond})
			defer fs.Clear()
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			before := fs.Injected()
			go func() {
				for fs.Injected() == before {
					time.Sleep(time.Millisecond)
				}
				cancel() // a shard is inside a slow read
			}()
			if err := sharded(ctx); err != context.Canceled {
				t.Fatalf("cancelled mid-scatter: %v, want the bare context.Canceled", err)
			}
		}},
		{"panic", func(t *testing.T) {
			p, err := c.planner.PlanReach(bg, q, core.DeferVerification())
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			err = c.verifyShard(bg, p, 0, c.engines[0], []int{len(p.Candidates()) + 5})
			if xerr.KindOf(err) != xerr.KindInternal {
				t.Fatalf("out-of-range position: %v (kind %v), want KindInternal", err, xerr.KindOf(err))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					goroutines := runtime.NumGoroutine()
					tc.run(t)
					balanced(t, goroutines)
					// The cluster still answers once the fault is gone.
					if err := sharded(bg); err != nil {
						t.Fatalf("healthy query after the failure: %v", err)
					}
					balanced(t, goroutines)
				})
			}
		})
	}
}
