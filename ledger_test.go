package streach

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden from this build")

// ledgerGolden is the committed work ledger.
const ledgerGolden = "testdata/ledger.golden"

// TestWorkLedger writes what one fixed workload costs, in counts that
// repeat exactly, and fails on any difference from testdata/ledger.golden
// (go test . -run TestWorkLedger -update rewrites it). smallSystem is
// saved and reopened, then answers requestMatrix(…, 11h).full one
// request at a time, cold (nothing warmed, no plan reused) and with one
// verification worker, so page reads and pool hits depend on the
// system's state alone. The ledger holds each saved file's bytes and,
// per numbered query, its verified candidates, page reads and pool
// hits, Con-Index rows hit and materialised, bounding-region sizes and
// result size. A change's diff of the file is its work claim.
func TestWorkLedger(t *testing.T) {
	dir := t.TempDir()
	if err := smallSystem(t).Save(dir); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintln(&b, "# smallSystem saved and reopened; requestMatrix(11h).full, serial, cold, one verification worker")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "file %-13s %d\n", e.Name(), fi.Size())
	}
	s := variant(t, vcfg{dir: dir})
	for i, q := range requestMatrix(s, 11*time.Hour).full {
		r, err := s.Do(context.Background(), q.req, append([]Option{WithVerifyWorkers(1), WithBatchSharing(false)}, q.opts...)...)
		if err != nil {
			fmt.Fprintf(&b, "q%02d %-28s %s\n", i, q, CodeOf(err))
			continue
		}
		m := r.Metrics
		fmt.Fprintf(&b, "q%02d %-28s evaluated=%d page_reads=%d page_hits=%d con_hits=%d con_materialised=%d max_region=%d min_region=%d result=%d\n",
			i, q, m.Evaluated, m.PageReads, m.PageHits, m.ConHits, m.ConMaterialised, m.MaxRegion, m.MinRegion, m.RoadSegments)
	}
	if *updateLedger {
		if err := os.WriteFile(ledgerGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(ledgerGolden))
	if err != nil {
		t.Fatalf("%v (go test . -run TestWorkLedger -update writes it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := bytes.Split(b.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range max(len(got), len(wantLines)) {
			var g, w []byte
			if i < len(got) {
				g = got[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("the ledger differs from %s at line %d:\n got: %s\nwant: %s\n(go test . -run TestWorkLedger -update rewrites it; name every moved count in CHANGES.md)", ledgerGolden, i+1, g, w)
			}
		}
	}
}
