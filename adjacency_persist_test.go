package streach

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestSaveRestoresWarmedAdjacency asserts the persisted conindex.adj
// blob makes a reopened system answer its first (cold) query from
// restored rows instead of re-running travel-time Dijkstras.
func TestSaveRestoresWarmedAdjacency(t *testing.T) {
	q := testQuery(smallSystem(t))
	reopened := variant(t, vcfg{saved: true, warm: q.Start})

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
	checkOracle(t, reference(t), serial(reopened), requestMatrix(smallSystem(t), q.Start).full)
}

// TestOpenSystemPreAdjacencySaveDir asserts save directories written
// before the adjacency blob existed (no conindex.adj) still open, and
// that a corrupt blob degrades to a cold-table open instead of failing.
func TestOpenSystemPreAdjacencySaveDir(t *testing.T) {
	q := testQuery(smallSystem(t))
	s := variant(t, warmed(q.Start))
	dir := filepath.Join(t.TempDir(), "legacy")
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	adj := filepath.Join(dir, "conindex.adj")
	reqs := requestMatrix(s, q.Start).smoke

	if err := os.Remove(adj); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, reference(t), serial(variant(t, vcfg{dir: dir})), reqs)

	if err := os.WriteFile(adj, []byte("not an adjacency blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, reference(t), serial(variant(t, vcfg{dir: dir})), reqs)
}

// TestWarmParallelDeterministic asserts a parallel Warm produces the
// same query answers as a cold engine (the worker pool only changes who
// runs each Dijkstra, never its result).
func TestWarmParallelDeterministic(t *testing.T) {
	q := testQuery(smallSystem(t))
	warm := variant(t, warmed(q.Start))
	got, err := warm.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.ConMaterialised != 0 {
		t.Fatalf("warmed query materialised %d rows, want 0", got.Metrics.ConMaterialised)
	}
	checkOracle(t, reference(t), serial(warm), requestMatrix(warm, q.Start).full)
}
