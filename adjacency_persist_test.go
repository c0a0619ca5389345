package streach

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSaveRestoresWarmedAdjacency asserts the persisted conindex.adj
// blob makes a reopened system answer its first (cold) query from
// restored rows instead of re-running travel-time Dijkstras.
func TestSaveRestoresWarmedAdjacency(t *testing.T) {
	s := smallSystem(t)
	q := testQuery(s)
	warmWindow(t, s, q.Start, q.Duration)
	want, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "warm")
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenSystem(dir, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()

	con := reopened.Engine().ConIndex()
	if con.Stats().Loaded == 0 {
		t.Fatal("reopened system should restore adjacency rows")
	}
	if con.CachedLists() == 0 {
		t.Fatal("reopened system should have warmed forward tables")
	}
	got, err := reopened.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.ConMaterialised != 0 {
		t.Fatalf("cold query on restored adjacency materialised %d rows, want 0",
			got.Metrics.ConMaterialised)
	}
	if got.Metrics.ConHits == 0 {
		t.Fatal("cold query should report adjacency hits")
	}
	if len(got.SegmentIDs) != len(want.SegmentIDs) {
		t.Fatalf("restored-adjacency region has %d segments, want %d",
			len(got.SegmentIDs), len(want.SegmentIDs))
	}
	for i := range want.SegmentIDs {
		if got.SegmentIDs[i] != want.SegmentIDs[i] {
			t.Fatalf("restored-adjacency region differs at %d", i)
		}
	}
}

// TestOpenSystemPreAdjacencySaveDir asserts save directories written
// before the adjacency blob existed (no conindex.adj) still open, and
// that a corrupt blob degrades to a cold-table open instead of failing.
func TestOpenSystemPreAdjacencySaveDir(t *testing.T) {
	s := smallSystem(t)
	q := testQuery(s)
	warmWindow(t, s, q.Start, q.Duration)
	want, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "legacy")
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	adj := filepath.Join(dir, "conindex.adj")

	check := func(label string) {
		reopened, err := OpenSystem(dir, DefaultIndexConfig())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer reopened.Close()
		got, err := reopened.Do(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(got.SegmentIDs) != len(want.SegmentIDs) {
			t.Fatalf("%s: region has %d segments, want %d", label, len(got.SegmentIDs), len(want.SegmentIDs))
		}
	}

	if err := os.Remove(adj); err != nil {
		t.Fatal(err)
	}
	check("missing adjacency file")

	if err := os.WriteFile(adj, []byte("not an adjacency blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	check("corrupt adjacency file")
}

// TestWarmParallelDeterministic asserts a parallel Warm produces the
// same query answers as a cold engine (the worker pool only changes who
// runs each Dijkstra, never its result).
func TestWarmParallelDeterministic(t *testing.T) {
	s := smallSystem(t)
	q := testQuery(s)
	cold, err := NewSystemFromData(s.Network(), s.Dataset(), DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	want, err := cold.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewSystemFromData(s.Network(), s.Dataset(), DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	warmWindow(t, warm, q.Start, 30*time.Minute)
	got, err := warm.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.ConMaterialised != 0 {
		t.Fatalf("warmed query materialised %d rows, want 0", got.Metrics.ConMaterialised)
	}
	if len(got.SegmentIDs) != len(want.SegmentIDs) {
		t.Fatalf("warm region has %d segments, cold %d", len(got.SegmentIDs), len(want.SegmentIDs))
	}
	for i := range want.SegmentIDs {
		if got.SegmentIDs[i] != want.SegmentIDs[i] {
			t.Fatalf("warm/cold regions differ at %d", i)
		}
	}
}
