package conindex

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"streach/internal/roadnet"
)

// materialise a representative mix of rows across all four tables.
func warmSome(idx *Index) {
	slots := []int{0, 90, 132}
	for _, slot := range slots {
		for seg := 0; seg < idx.net.NumSegments(); seg += 3 {
			id := roadnet.SegmentID(seg)
			list(idx, Far, id, slot)
			list(idx, Near, id, slot)
			if seg%6 == 0 {
				list(idx, FarReverse, id, slot)
				list(idx, NearReverse, id, slot)
			}
		}
	}
}

func TestAdjacencySaveLoadRoundTrip(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	orig := build(t, n, ds)
	warmSome(orig)

	var buf bytes.Buffer
	if err := orig.SaveAdjacency(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh index over the same stats, adjacency restored from the blob.
	var stats bytes.Buffer
	if err := orig.Save(&stats); err != nil {
		t.Fatal(err)
	}
	got, err := Load(n, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.LoadAdjacency(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got.Stats().Loaded == 0 {
		t.Fatal("LoadAdjacency should count loaded rows")
	}
	if got.CachedLists() != orig.CachedLists() {
		t.Fatalf("restored %d forward rows, want %d", got.CachedLists(), orig.CachedLists())
	}

	// Every restored list must be identical to the original — and serving
	// them must not run any new expansion.
	m0 := got.Stats().Materialised
	for _, slot := range []int{0, 90, 132} {
		for seg := 0; seg < n.NumSegments(); seg += 3 {
			id := roadnet.SegmentID(seg)
			if !reflect.DeepEqual(list(orig, Far, id, slot), list(got, Far, id, slot)) {
				t.Fatalf("Far mismatch at seg=%d slot=%d", seg, slot)
			}
			if !reflect.DeepEqual(list(orig, Near, id, slot), list(got, Near, id, slot)) {
				t.Fatalf("Near mismatch at seg=%d slot=%d", seg, slot)
			}
			if seg%6 == 0 {
				if !reflect.DeepEqual(list(orig, FarReverse, id, slot), list(got, FarReverse, id, slot)) {
					t.Fatalf("FarReverse mismatch at seg=%d slot=%d", seg, slot)
				}
				if !reflect.DeepEqual(list(orig, NearReverse, id, slot), list(got, NearReverse, id, slot)) {
					t.Fatalf("NearReverse mismatch at seg=%d slot=%d", seg, slot)
				}
			}
		}
	}
	if m := got.Stats().Materialised - m0; m != 0 {
		t.Fatalf("restored rows should serve without expansions, ran %d", m)
	}
}

func TestAdjacencyRejectsMismatch(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	warmSome(idx)
	var buf bytes.Buffer
	if err := idx.SaveAdjacency(&buf); err != nil {
		t.Fatal(err)
	}

	if err := idx.LoadAdjacency(bytes.NewReader([]byte("XXXX0000"))); err == nil {
		t.Fatal("bad magic should error")
	}
	if err := idx.LoadAdjacency(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated blob should error")
	}
	// Wrong Δt.
	other, err := Build(n, testDataset(t, n), Config{SlotSeconds: 600})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadAdjacency(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("slot-seconds mismatch should error")
	}
}

// TestRowMatchesExpansion asserts the row form expands to exactly the
// Dijkstra list, per (segment, slot), for all four tables, over rows on
// both sides of the adjacency blob's list/bitset cutoff.
func TestRowMatchesExpansion(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	sawSparse, sawDense := false, false
	for _, slot := range []int{0, 50, 132, 270} {
		for seg := 0; seg < n.NumSegments(); seg += 2 {
			id := roadnet.SegmentID(seg)
			for _, tc := range []struct {
				name string
				row  Row
				want []roadnet.SegmentID
			}{
				{"far", row(idx, Far, id, slot), refExpand(idx, id, slot, true)},
				{"near", row(idx, Near, id, slot), refExpand(idx, id, slot, false)},
				{"farRev", row(idx, FarReverse, id, slot), refExpandReverse(idx, id, slot, true)},
				{"nearRev", row(idx, NearReverse, id, slot), refExpandReverse(idx, id, slot, false)},
			} {
				if !adjSparse(tc.row.Len(), n.NumSegments()) {
					sawDense = true
				} else if tc.row.Len() > 0 {
					sawSparse = true
				}
				if tc.row.Len() != len(tc.want) {
					t.Fatalf("%s seg=%d slot=%d: row has %d members, expansion %d",
						tc.name, seg, slot, tc.row.Len(), len(tc.want))
				}
				for _, s := range tc.want {
					if !tc.row.Has(s) {
						t.Fatalf("%s seg=%d slot=%d: row missing %d", tc.name, seg, slot, s)
					}
				}
				// AppendTo must yield the sorted expansion set.
				got := tc.row.AppendTo(nil)
				for i := 1; i < len(got); i++ {
					if got[i-1] >= got[i] {
						t.Fatalf("%s seg=%d slot=%d: AppendTo not strictly ascending", tc.name, seg, slot)
					}
				}
			}
		}
	}
	if !sawSparse || !sawDense {
		t.Fatalf("test should exercise rows on both sides of the cutoff (sparse=%v dense=%v)", sawSparse, sawDense)
	}
}

// TestSingleflightColdMiss asserts concurrent cold misses on one key run
// exactly one expansion.
func TestSingleflightColdMiss(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	lists := make([][]roadnet.SegmentID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			lists[g] = list(idx, Far, 7, 130)
		}(g)
	}
	close(start)
	wg.Wait()
	if m := idx.Stats().Materialised; m != 1 {
		t.Fatalf("16 concurrent cold misses materialised %d rows, want 1", m)
	}
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(lists[0], lists[g]) {
			t.Fatalf("goroutine %d saw a different list", g)
		}
	}
}

func TestParallelPrecomputeMatchesSerial(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	serial := build(t, n, ds)
	warm(t, serial, 130, 135, 1)
	parallel := build(t, n, ds)
	warm(t, parallel, 130, 135, 8)
	if serial.CachedLists() != parallel.CachedLists() {
		t.Fatalf("serial warmed %d rows, parallel %d", serial.CachedLists(), parallel.CachedLists())
	}
	for slot := 130; slot <= 135; slot++ {
		for seg := 0; seg < n.NumSegments(); seg += 5 {
			id := roadnet.SegmentID(seg)
			if !reflect.DeepEqual(list(serial, Far, id, slot), list(parallel, Far, id, slot)) {
				t.Fatalf("Far mismatch at seg=%d slot=%d", seg, slot)
			}
			if !reflect.DeepEqual(list(serial, Near, id, slot), list(parallel, Near, id, slot)) {
				t.Fatalf("Near mismatch at seg=%d slot=%d", seg, slot)
			}
		}
	}
}
