package streach

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenSystemPreAdjacencySaveDir asserts a warmed save writes no
// conindex.adj and reopens cold, answering as the reference, and that a
// conindex.adj left by an earlier build — garbage, or the CADJ v2 file
// of testdata/preframe — is never read: the open logs nothing and
// answers as the reference, and the next Save or durable compaction
// into the directory deletes the file.
func TestOpenSystemPreAdjacencySaveDir(t *testing.T) {
	q := testQuery(smallSystem(t))
	s := variant(t, warmed(q.Start))
	dir := filepath.Join(t.TempDir(), "legacy")
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	adj := filepath.Join(dir, fileConAdj)
	reqs := requestMatrix(s, q.Start).smoke
	gone := func(after string) {
		t.Helper()
		if _, err := os.Stat(adj); !os.IsNotExist(err) {
			t.Fatalf("%s left %s in the directory (%v)", after, fileConAdj, err)
		}
	}
	gone("a warmed save")
	opened := variant(t, vcfg{dir: dir})
	if n := opened.Engine().ConIndex().CachedLists(); n != 0 {
		t.Fatalf("a reopened system holds %d warm rows, want a cold start", n)
	}
	checkOracle(t, reference(t), serial(opened), reqs)
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}

	preframe, err := os.ReadFile(filepath.Join("testdata", "preframe", fileConAdj))
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{"garbage": []byte("not an adjacency blob"), "CADJ v2": preframe} {
		for _, rewrite := range []string{"save", "durable compaction"} {
			if err := os.WriteFile(adj, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			logBuf := captureLog(t)
			sys := variant(t, vcfg{dir: dir})
			if logBuf.Len() != 0 {
				t.Fatalf("%s: opening beside a leftover %s logged:\n%s", name, fileConAdj, logBuf.String())
			}
			checkOracle(t, reference(t), serial(sys), reqs)
			switch rewrite {
			case "save":
				err = sys.Save(dir)
			default:
				if err = sys.StartIngest(IngestConfig{}); err == nil {
					var res CompactResult
					if res, err = sys.CompactIngestN(context.Background(), 0); err == nil && !res.Durable {
						t.Fatalf("%s: the compaction was not durable: %+v", name, res)
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			gone(name + ", then a " + rewrite)
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
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
