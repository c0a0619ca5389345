package stindex

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"streach/internal/storage"
	"streach/internal/traj"
	"streach/internal/xerr"
)

// The ST-Index persistence tests reuse the exported storage.FaultStore
// as their chaos harness: a scenario drives reads through the page
// store at load time, when the buffer pool is cold and every page fetch
// hits the store.

// savedIndex builds an index over a MemStore, persists its meta to a
// buffer, flushes the pages, and returns both so tests can reload the
// same bytes through an arbitrary Store wrapper.
func savedIndex(t testing.TB) (*traj.Dataset, *storage.MemStore, []byte) {
	return savedIndexAt(t, 300)
}

// savedIndexAt is savedIndex at a slot width of slotSec.
func savedIndexAt(t testing.TB, slotSec int) (*traj.Dataset, *storage.MemStore, []byte) {
	t.Helper()
	n := testNetwork(t)
	ds := testDataset(t, n)
	mem := storage.NewMemStore()
	idx, err := Build(n, ds, Config{SlotSeconds: slotSec, Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	var meta bytes.Buffer
	if err := idx.SaveMeta(&meta); err != nil {
		t.Fatal(err)
	}
	if err := idx.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	return ds, mem, meta.Bytes()
}

// TestLoadOverFaultStoreDetectsCorruption: a single bit flipped by the
// fault layer in any page read during load must trip the meta's page-store
// checksum — the load fails typed CorruptData instead of serving a
// silently wrong index.
func TestLoadOverFaultStoreDetectsCorruption(t *testing.T) {
	_, mem, meta := savedIndex(t)
	n := testNetwork(t)
	for seed := int64(0); seed < 4; seed++ {
		fs := storage.NewFaultStore(mem, storage.Scenario{
			Seed:  seed,
			Rules: []storage.FaultRule{{Op: storage.OpRead, Mode: storage.ModeCorrupt, Count: 1}},
		})
		_, err := LoadIndex(n, Config{Store: fs}, bytes.NewReader(meta))
		if err == nil {
			t.Fatalf("seed %d: load over a corrupting store should fail", seed)
		}
		if xerr.KindOf(err) != xerr.KindCorrupt {
			t.Fatalf("seed %d: kind = %v, want KindCorrupt (%v)", seed, xerr.KindOf(err), err)
		}
		if fs.Injected() != 1 {
			t.Fatalf("seed %d: %d faults injected, want 1", seed, fs.Injected())
		}
	}
}

// TestLoadOverFaultStoreErrorPropagates: an injected read error aborts
// the load with the sentinel intact, and clearing the scenario (the
// transient fault healing) lets the identical bytes load cleanly.
func TestLoadOverFaultStoreErrorPropagates(t *testing.T) {
	ds, mem, meta := savedIndex(t)
	n := testNetwork(t)
	fs := storage.NewFaultStore(mem, storage.Scenario{
		Rules: []storage.FaultRule{{Op: storage.OpRead, Mode: storage.ModeError}},
	})
	if _, err := LoadIndex(n, Config{Store: fs}, bytes.NewReader(meta)); err == nil {
		t.Fatal("load over an erring store should fail")
	} else if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("error should wrap storage.ErrInjected, got: %v", err)
	}

	fs.Clear()
	idx, err := LoadIndex(n, Config{Store: fs}, bytes.NewReader(meta))
	if err != nil {
		t.Fatalf("load after Clear(): %v", err)
	}
	defer idx.Close()
	mt := &ds.Matched[0]
	v := mt.Visits[0]
	slot := slotOf(idx, v.Enter(ds.DayStart(mt.Day)))
	tl, err := idx.TimeListAt(v.Segment, slot)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Days) == 0 {
		t.Fatal("healed index answers an empty time list for a visited slot")
	}
}

// TestLoadOverFaultStoreLatencyIsHarmless: latency injection delays but
// does not alter — the loaded index is fully usable.
func TestLoadOverFaultStoreLatencyIsHarmless(t *testing.T) {
	_, mem, meta := savedIndex(t)
	n := testNetwork(t)
	fs := storage.NewFaultStore(mem, storage.Scenario{Rules: []storage.FaultRule{
		{Op: storage.OpRead, Mode: storage.ModeLatency, Count: 2, Latency: time.Millisecond},
	}})
	idx, err := LoadIndex(n, Config{Store: fs}, bytes.NewReader(meta))
	if err != nil {
		t.Fatalf("load under latency injection: %v", err)
	}
	defer idx.Close()
	if fs.Injected() == 0 {
		t.Fatal("latency rule never fired")
	}
}
