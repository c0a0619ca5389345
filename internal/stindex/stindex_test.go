package stindex

import (
	"testing"
	"time"

	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/storage"
	"streach/internal/traj"
)

func testNetwork(t testing.TB) *roadnet.Network {
	t.Helper()
	n, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin:        geo.Point{Lat: 22.5, Lng: 114.0},
		Rows:          5,
		Cols:          5,
		SpacingMeters: 700,
		LocalFraction: 0.3,
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testDataset(t testing.TB, n *roadnet.Network) *traj.Dataset {
	t.Helper()
	ds, err := traj.Simulate(n, traj.SimConfig{
		Taxis: 12, Days: 4, Profile: traj.DefaultSpeedProfile(), Seed: 5,
		ActiveStartSec: 9 * 3600, ActiveEndSec: 11 * 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func buildIndex(t *testing.T, n *roadnet.Network, ds *traj.Dataset) *Index {
	t.Helper()
	idx, err := Build(n, ds, Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// slotOf maps a time to its slot, as queries do: by division.
func slotOf(x *Index, t time.Time) int { return traj.SecondsOfDay(x.BaseDate(), t) / x.SlotSeconds() }

func TestBuildValidations(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	if _, err := Build(roadnet.NewBuilder().Build(), ds, Config{}); err == nil {
		t.Fatal("empty network should error")
	}
	if _, err := Build(n, &traj.Dataset{}, Config{}); err == nil {
		t.Fatal("empty dataset should error")
	}
	if _, err := Build(n, ds, Config{SlotSeconds: 7}); err == nil {
		t.Fatal("slot not dividing 86400 should error")
	}
}

func TestTimeListsMatchDataset(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	idx := buildIndex(t, n, ds)
	defer idx.Close()

	// Oracle: recompute (seg, slot, day) -> taxis from the raw dataset.
	type key struct {
		seg  roadnet.SegmentID
		slot int
		day  traj.Day
	}
	oracle := map[key]map[traj.TaxiID]bool{}
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		for _, v := range mt.Visits {
			s0 := int(v.EnterMs) / 1000 / 300
			s1 := int(v.ExitMs) / 1000 / 300
			for s := s0; s <= s1 && s < idx.NumSlots(); s++ {
				k := key{v.Segment, s, mt.Day}
				if oracle[k] == nil {
					oracle[k] = map[traj.TaxiID]bool{}
				}
				oracle[k][mt.Taxi] = true
			}
		}
	}
	checked := 0
	for k, want := range oracle {
		tl, err := idx.TimeListAt(k.seg, k.slot)
		if err != nil {
			t.Fatal(err)
		}
		got := tl.TaxisOn(k.day)
		if len(got) != len(want) {
			t.Fatalf("time list (seg=%d slot=%d day=%d): %d taxis, want %d",
				k.seg, k.slot, k.day, len(got), len(want))
		}
		for _, taxi := range got {
			if !want[taxi] {
				t.Fatalf("time list has unexpected taxi %d", taxi)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("oracle was empty; test is vacuous")
	}
}

func TestTimeListEmptyForQuietSlot(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n) // active 09:00-11:00 only
	idx := buildIndex(t, n, ds)
	defer idx.Close()
	// 03:00 should be silent everywhere.
	slot := 3 * 3600 / 300
	for seg := 0; seg < n.NumSegments(); seg++ {
		tl, err := idx.TimeListAt(roadnet.SegmentID(seg), slot)
		if err != nil {
			t.Fatal(err)
		}
		if len(tl.Days) != 0 {
			t.Fatalf("segment %d has traffic at 03:00", seg)
		}
	}
}

func TestTimeListOutOfRangeInputs(t *testing.T) {
	n := testNetwork(t)
	idx := buildIndex(t, n, testDataset(t, n))
	defer idx.Close()
	for _, tc := range []struct {
		seg  roadnet.SegmentID
		slot int
	}{{-1, 0}, {0, -1}, {0, 1 << 20}, {roadnet.SegmentID(n.NumSegments()), 0}} {
		tl, err := idx.TimeListAt(tc.seg, tc.slot)
		if err != nil {
			t.Fatal(err)
		}
		if len(tl.Days) != 0 {
			t.Fatal("out-of-range lookup should be empty, not panic")
		}
	}
}

func TestSnapLocation(t *testing.T) {
	n := testNetwork(t)
	idx := buildIndex(t, n, testDataset(t, n))
	defer idx.Close()
	seg := n.Segment(3)
	p := geo.Offset(seg.Midpoint(), 20, 20)
	id, ok := idx.SnapLocation(p)
	if !ok {
		t.Fatal("snap failed")
	}
	if d := geo.Distance(n.Segment(id).Midpoint(), p); d > 2000 {
		t.Fatalf("snapped to a segment %v m away", d)
	}
}

func TestIOAccountingThroughPool(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	// Disable the decoded-list cache so every read exercises the pool.
	idx, err := Build(n, ds, Config{SlotSeconds: 300, TimeListCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if st := idx.Pool().Stats(); st.Reads != 0 || st.Hits != 0 {
		t.Fatalf("build should reset stats, got %v", st)
	}
	// First read misses, repeated read hits.
	mt := &ds.Matched[0]
	v := mt.Visits[0]
	slot := slotOf(idx, v.Enter(ds.DayStart(mt.Day)))
	if _, err := idx.TimeListAt(v.Segment, slot); err != nil {
		t.Fatal(err)
	}
	st1 := idx.Pool().Stats()
	if st1.Misses == 0 {
		t.Fatalf("first read should miss, got %v", st1)
	}
	if _, err := idx.TimeListAt(v.Segment, slot); err != nil {
		t.Fatal(err)
	}
	st2 := idx.Pool().Stats()
	if st2.Hits <= st1.Hits {
		t.Fatalf("second read should hit, got %v -> %v", st1, st2)
	}
}

func TestDecodedCacheShieldsPool(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	idx := buildIndex(t, n, ds) // decoded cache on by default
	defer idx.Close()
	mt := &ds.Matched[0]
	v := mt.Visits[0]
	slot := slotOf(idx, v.Enter(ds.DayStart(mt.Day)))
	if _, err := idx.timeListBitsAt(v.Segment, slot); err != nil {
		t.Fatal(err)
	}
	c1 := idx.CacheStats()
	if c1.Misses == 0 {
		t.Fatalf("first read should miss the decoded cache, got %+v", c1)
	}
	io1 := idx.Pool().Stats()
	if _, err := idx.timeListBitsAt(v.Segment, slot); err != nil {
		t.Fatal(err)
	}
	c2 := idx.CacheStats()
	if c2.Hits <= c1.Hits {
		t.Fatalf("second read should hit the decoded cache, got %+v -> %+v", c1, c2)
	}
	if io2 := idx.Pool().Stats(); io2 != io1 {
		t.Fatalf("decoded cache hit should not touch the pool: %v -> %v", io1, io2)
	}
	if idx.CacheLen() == 0 {
		t.Fatal("cache should hold the decoded list")
	}
}

// flatHandles returns x's installed handle table in stindex.meta order:
// slot-major, a slot without a row as zero handles.
func flatHandles(x *Index) []storage.BlobHandle {
	nseg := x.net.NumSegments()
	out := make([]storage.BlobHandle, x.numSlots*nseg)
	for slot, row := range x.liveHandles() {
		copy(out[slot*nseg:], row)
	}
	return out
}

func TestBuildDeterministic(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	a := buildIndex(t, n, ds)
	defer a.Close()
	b := buildIndex(t, n, ds)
	defer b.Close()
	// Same handles imply identical serialized layout.
	ah, bh := flatHandles(a), flatHandles(b)
	for i := range ah {
		if ah[i] != bh[i] {
			t.Fatalf("handle %d differs between builds", i)
		}
	}
}

func TestEncodeDecodeTimeList(t *testing.T) {
	// Tuples for (slot 0, seg 0): day 0 taxi 9; day 2 taxis 1, 5 (with a
	// duplicate to exercise dedup).
	run := []uint64{
		packTuple(0, 0, 0, 9),
		packTuple(0, 0, 2, 1),
		packTuple(0, 0, 2, 1),
		packTuple(0, 0, 2, 5),
	}
	blob := encodePackedRun(run)
	b, err := decodeTimeListBits(blob)
	if err != nil {
		t.Fatal(err)
	}
	tl := b.TimeList()
	if len(tl.Days) != 2 || tl.Days[0] != 0 || tl.Days[1] != 2 {
		t.Fatalf("days = %v", tl.Days)
	}
	if got := tl.TaxisOn(2); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("taxis on day 2 = %v, want [1 5]", got)
	}
	if got := tl.TaxisOn(7); got != nil {
		t.Fatal("absent day should be nil")
	}
	// Truncated blobs must error, not panic: a cut inside the marker or
	// inside an entry. A cut between entries is a shorter list.
	for cut := 0; cut < len(blob); cut++ {
		if _, err := decodeTimeListBits(blob[:cut]); (err == nil) != (cut >= 2 && (cut-2)%3 == 0) {
			t.Fatalf("truncation at %d: error %v", cut, err)
		}
	}
}
