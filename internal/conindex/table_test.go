package conindex

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"streach/internal/bitset"
	"streach/internal/roadnet"
)

// TestTableOneComputePerColdKey: many goroutines missing on the same cold
// keys at once run exactly one expansion per key, and all of them get the
// row it built.
func TestTableOneComputePerColdKey(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	const slot, goroutines = 132, 8
	nseg := n.NumSegments()
	computes := make([]atomic.Int64, nseg)
	rows := make([][]Row, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows[g] = make([]Row, nseg)
			for seg := 0; seg < nseg; seg++ {
				id := roadnet.SegmentID(seg)
				r, _, err := idx.far.row(idx, id, slot, func() (Row, error) {
					computes[seg].Add(1)
					return idx.expand(context.Background(), id, slot, true)
				})
				if err != nil {
					t.Error(err)
					return
				}
				rows[g][seg] = r
			}
		}(g)
	}
	wg.Wait()
	for seg := range computes {
		if c := computes[seg].Load(); c != 1 {
			t.Fatalf("seg %d: %d expansions for one cold key, want 1", seg, c)
		}
		want := makeRow(refExpand(idx, roadnet.SegmentID(seg), slot, true), bitset.New(nseg))
		for g := range rows {
			if !slices.Equal(rows[g][seg].AppendTo(nil), want.AppendTo(nil)) {
				t.Fatalf("seg %d: goroutine %d got a row that is not the expansion", seg, g)
			}
		}
	}
	if got := idx.far.size(); got != nseg {
		t.Fatalf("table holds %d rows, want %d", got, nseg)
	}
}

// TestTableRowsNeverOutliveInvalidation hammers all four tables with
// lock-free lookups and cold misses while speed observations keep
// invalidating the slot and a warm keeps installing rows at another.
// When the dust settles, every row still materialised at the observed
// slot must be the expansion under the final speeds: a row built from
// older speeds has either been dropped by the invalidation scan or was
// refused at install by the slot's generation. The warmed rows must all
// be there, served without a single expansion.
func TestTableRowsNeverOutliveInvalidation(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	const slot, loadSlot = 132, 40
	nseg := n.NumSegments()
	ctx := context.Background()

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := roadnet.SegmentID(i % nseg)
				for k := Far; k < numKinds; k++ {
					if _, err := idx.RowCtx(ctx, k, id, slot); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	writers.Add(2)
	go func() { // live speeds: every sample moves a bound at slot
		defer writers.Done()
		for i := 0; i < 400; i++ {
			seg := roadnet.SegmentID((i * 7) % nseg)
			idx.ObserveSpeedBatch([]SpeedSample{{Seg: seg, Slot0: slot, Slot1: slot, Speed: 40 + float64(i)/10}}) // ever faster: max moves
			idx.ObserveSpeedBatch([]SpeedSample{{Seg: seg, Slot0: slot, Slot1: slot, Speed: 3 - float64(i)/200}}) // ever slower: min moves
		}
	}()
	go func() { // a warm of another slot, on workers of its own
		defer writers.Done()
		if err := idx.PrecomputeSlotsCtx(ctx, loadSlot, loadSlot, 2); err != nil {
			t.Error(err)
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	// want is the reference row of table ti under the final speeds.
	want := func(ti int, id roadnet.SegmentID, slot int) []roadnet.SegmentID {
		far := ti == 0 || ti == 2
		list := refExpand(idx, id, slot, far)
		if ti >= 2 {
			list = refExpandReverse(idx, id, slot, far)
		}
		return makeRow(list, bitset.New(nseg)).AppendTo(nil)
	}
	survivors := 0
	for ti, tbl := range idx.adjTables() {
		for seg := 0; seg < nseg; seg++ {
			id := roadnet.SegmentID(seg)
			if got, ok := tbl.lookup(slot, id); ok {
				survivors++
				if !slices.Equal(got.AppendTo(nil), want(ti, id, slot)) {
					t.Fatalf("table %d seg %d: a row built from superseded speeds survived", ti, seg)
				}
			}
			if got, ok := tbl.lookup(loadSlot, id); !ok || !slices.Equal(got.AppendTo(nil), want(ti, id, loadSlot)) {
				t.Fatalf("table %d seg %d: warmed row missing or altered", ti, seg)
			}
		}
		if got := tbl.size(); got < nseg {
			t.Fatalf("table %d counts %d rows with %d warmed", ti, got, nseg)
		}
	}
	if survivors == 0 {
		t.Fatal("no row outlived the last observation; nothing was checked")
	}
	before := idx.Stats().Materialised
	for seg := 0; seg < nseg; seg++ {
		if _, err := idx.FarRowCtx(ctx, roadnet.SegmentID(seg), loadSlot); err != nil {
			t.Fatal(err)
		}
	}
	if after := idx.Stats().Materialised; after != before {
		t.Fatalf("warmed rows re-ran %d expansions", after-before)
	}
}

// TestTableRefusesRowStaledMidCompute: an observation that lands on the
// slot while a row's expansion is running has already scanned the table
// by the time the row is ready; the row is handed to its caller but must
// not be installed.
func TestTableRefusesRowStaledMidCompute(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	const slot = 132
	seg := roadnet.SegmentID(3)
	stale, _, err := idx.far.row(idx, seg, slot, func() (Row, error) {
		r, err := idx.expand(context.Background(), seg, slot, true)
		if !idx.ObserveSpeedBatch([]SpeedSample{{Seg: seg, Slot0: slot, Slot1: slot, Speed: 60}}) {
			t.Error("the observation moved no bound; the fixture tests nothing")
		}
		return r, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.far.lookup(slot, seg); ok {
		t.Fatal("a row computed before the observation was installed after it")
	}
	fresh, err := idx.FarRowCtx(context.Background(), seg, slot)
	if err != nil {
		t.Fatal(err)
	}
	if want := makeRow(refExpand(idx, seg, slot, true), bitset.New(n.NumSegments())); !slices.Equal(fresh.AppendTo(nil), want.AppendTo(nil)) {
		t.Fatal("the row materialised after the observation is not the expansion under the new speeds")
	}
	if fresh.Len() <= stale.Len() {
		t.Fatalf("a faster segment did not widen the row (%d -> %d members)", stale.Len(), fresh.Len())
	}
}

// TestPrecomputeSkipsWarmSlots: warming a window that is already fully
// materialised looks no row up, a slot that lost rows to an invalidating
// observation is warmed again — only it, only the rows it lost — and the
// per-slot counts the skip rests on agree with the cells.
func TestPrecomputeSkipsWarmSlots(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	nseg := n.NumSegments()
	const lo, hi = 130, 132
	slotsWarm := func(lo, hi int) bool {
		for slot := lo; slot <= hi; slot++ {
			if !idx.slotWarm(slot) {
				return false
			}
		}
		return true
	}
	if slotsWarm(lo, hi) {
		t.Fatal("a cold window reports warm")
	}
	warm(t, idx, lo, hi, 2)
	if got, want := idx.Stats().Materialised, int64(4*3*nseg); got != want {
		t.Fatalf("first warm materialised %d rows, want %d", got, want)
	}
	if !slotsWarm(lo, hi) || !slotsWarm(lo+idx.NumSlots(), hi+idx.NumSlots()) || slotsWarm(lo, hi+1) {
		t.Fatal("slotWarm disagrees with what was just warmed")
	}
	before := idx.Stats()
	warm(t, idx, lo, hi, 2)
	warm(t, idx, lo+idx.NumSlots(), hi+idx.NumSlots(), 1) // the same slots, a day on
	if d := idx.Stats().Sub(before); d.Hits != 0 || d.Materialised != 0 {
		t.Fatalf("warming a warm window did work: %+v", d)
	}

	if !idx.ObserveSpeedBatch([]SpeedSample{{Seg: 4, Slot0: lo + 1, Slot1: lo + 1, Speed: 60}}) {
		t.Fatal("observation did not move a bound")
	}
	if slotsWarm(lo, hi) || !slotsWarm(lo, lo) || !slotsWarm(hi, hi) {
		t.Fatal("slotWarm missed the invalidated slot, or blames its neighbours")
	}
	lost := 0
	for _, tbl := range idx.adjTables() {
		if !tbl.full(lo) || !tbl.full(hi) {
			t.Fatal("an observation on one slot emptied another")
		}
		lost += nseg - int(tbl.filled[lo+1].Load())
	}
	if lost == 0 {
		t.Fatal("the observation invalidated no row")
	}
	before = idx.Stats()
	warm(t, idx, lo, hi, 2)
	d := idx.Stats().Sub(before)
	if d.Materialised != int64(lost) || d.Hits != int64(4*nseg-lost) {
		t.Fatalf("re-warm materialised %d rows and hit %d, want %d and %d (one slot's rows)", d.Materialised, d.Hits, lost, 4*nseg-lost)
	}
	for ti, tbl := range idx.adjTables() {
		cells := 0
		for slot := 0; slot < idx.NumSlots(); slot++ {
			for seg := 0; seg < nseg; seg++ {
				if _, ok := tbl.lookup(slot, roadnet.SegmentID(seg)); ok {
					cells++
				}
			}
		}
		if cells != tbl.size() || cells != 3*nseg {
			t.Fatalf("table %d: %d cells hold rows, counts say %d, want %d", ti, cells, tbl.size(), 3*nseg)
		}
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
