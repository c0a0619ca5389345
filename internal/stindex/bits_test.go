package stindex

import (
	"math/rand"
	"reflect"
	"testing"

	"streach/internal/bitset"
	"streach/internal/roadnet"
)

// randomRun builds a sorted, deduplicated packed-tuple run for one
// (slot, segment) pair.
func randomRun(rng *rand.Rand, slot, seg, maxDay, maxTaxi, n int) []uint64 {
	if n > maxDay*maxTaxi {
		n = maxDay * maxTaxi // can't draw more distinct tuples than exist
	}
	seen := map[uint64]bool{}
	var run []uint64
	for len(run) < n {
		t := packTuple(slot, seg, rng.Intn(maxDay), rng.Intn(maxTaxi))
		if seen[t] {
			continue
		}
		seen[t] = true
		run = append(run, t)
	}
	sortTuples(run)
	return run
}

func sortTuples(run []uint64) {
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && run[j] < run[j-1]; j-- {
			run[j], run[j-1] = run[j-1], run[j]
		}
	}
}

func TestBitsCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		run := randomRun(rng, 3, 9, 1+rng.Intn(120), 1+rng.Intn(400), 1+rng.Intn(80))
		want := runTimeList(run)
		bits, err := decodeTimeListBits(encodePackedRun(run))
		if err != nil {
			t.Fatal(err)
		}
		got := bits.TimeList()
		if !reflect.DeepEqual(got.Days, want.Days) {
			t.Fatalf("trial %d: days %v != %v", trial, got.Days, want.Days)
		}
		if !reflect.DeepEqual(got.Taxis, want.Taxis) {
			t.Fatalf("trial %d: taxis %v != %v", trial, got.Taxis, want.Taxis)
		}
		// The day mask must agree with the day list.
		for _, d := range bits.Days {
			if bits.DayMask[int(d)>>6]&(1<<(uint(d)&63)) == 0 {
				t.Fatalf("trial %d: day %d missing from mask", trial, d)
			}
		}
	}
}

// TestFormatsDecodeAndMatchAlike: the decoded form and the packed bytes
// answer alike — a run decodes to its own days and taxis, and the
// matcher over its packed bytes finds the days intersecting those
// decoded sets finds.
func TestFormatsDecodeAndMatchAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const days, maxTaxi = 70, 300
	for trial := 0; trial < 30; trial++ {
		run := randomRun(rng, 4, 2, days, maxTaxi, 1+rng.Intn(150))
		sets := randomSets(rng, 1+rng.Intn(3), days, maxTaxi, 0.3)
		blob := encodePackedRun(run)
		got, err := decodeTimeListBits(blob)
		if err != nil {
			t.Fatal(err)
		}
		if want := runTimeList(run); !reflect.DeepEqual(got.TimeList(), want) {
			t.Fatalf("trial %d: decodes to %+v, want %+v", trial, got.TimeList(), want)
		}
		matched := make([][]bool, len(sets))
		for i := range sets {
			matched[i] = make([]bool, days)
			for j, d := range got.Days {
				matched[i][d] = bitset.Intersects(sets[i][d], got.Bits[j])
			}
		}
		_, st, err := streamMatch(days, sets, [][]byte{blob})
		if err != nil {
			t.Fatal(err)
		}
		if st.best() != bestOf(matched) {
			t.Fatalf("trial %d: matches %d days, the decoded sets %d", trial, st.best(), bestOf(matched))
		}
	}
}

// TestBitsEmptyBlob: a run with no visits encodes to the bare marker and
// decodes to an empty list; a blob too short to carry the marker is an
// error, not an empty list.
func TestBitsEmptyBlob(t *testing.T) {
	b, err := decodeTimeListBits(encodePackedRun(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Days) != 0 || len(b.Bits) != 0 {
		t.Fatal("the empty run should decode to an empty list")
	}
	for _, blob := range [][]byte{nil, {packedMarker0}} {
		if _, err := decodeTimeListBits(blob); err == nil {
			t.Fatalf("blob %x decodes", blob)
		}
	}
}

// TestPackedEntryLayout pins the packed bytes: the marker, then each
// distinct tuple's day<<15 | taxi as three little-endian bytes.
func TestPackedEntryLayout(t *testing.T) {
	run := []uint64{
		packTuple(7, 3, 0, 9),
		packTuple(7, 3, 2, 1),
		packTuple(7, 3, 2, 1),
		packTuple(7, 3, maxDays-1, maxTaxis-1),
	}
	want := []byte{0xB3, 0xFE, 9, 0, 0, 1, 0, 1, 0xff, 0xff, 0xff}
	if got := encodePackedRun(run); !reflect.DeepEqual(got, want) {
		t.Fatalf("packed = %x, want %x", got, want)
	}
}

func TestMultiWordDayMask(t *testing.T) {
	run := []uint64{
		packTuple(0, 0, 2, 5),
		packTuple(0, 0, 2, 70),
		packTuple(0, 0, 65, 1),
	}
	b, err := decodeTimeListBits(encodePackedRun(run))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Days) != 2 || b.Days[0] != 2 || b.Days[1] != 65 {
		t.Fatalf("days = %v, want [2 65]", b.Days)
	}
	if got := b.Bits[0]; got[0]&(1<<5) == 0 || got[1]&(1<<6) == 0 {
		t.Fatalf("day 2 bitset wrong: %v", got)
	}
	if got := b.Bits[1]; got[0]&(1<<1) == 0 {
		t.Fatalf("day 65 bitset wrong: %v", got)
	}
	if len(b.DayMask) != 2 || b.DayMask[0] != 1<<2 || b.DayMask[1] != 1<<1 {
		t.Fatalf("day mask = %v", b.DayMask)
	}
}

// TestBitsIntersect checks the taxi-bitset intersection the matcher uses
// to test a decoded day's taxis against a source set.
func TestBitsIntersect(t *testing.T) {
	cases := []struct {
		a, b []uint64
		want bool
	}{
		{nil, nil, false},
		{[]uint64{1}, nil, false},
		{[]uint64{0b101}, []uint64{0b010}, false},
		{[]uint64{0b101}, []uint64{0b100}, true},
		{[]uint64{0, 1 << 9}, []uint64{0, 1 << 9}, true},
		{[]uint64{0, 1 << 9}, []uint64{1 << 9}, false}, // different words
	}
	for i, c := range cases {
		if got := bitset.Intersects(c.a, c.b); got != c.want {
			t.Fatalf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestTimeListsRangeMatchesTimeListAt(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	idx := buildIndex(t, n, ds)
	defer idx.Close()

	lo, hi := 9*12, 9*12+11 // the simulated active window, 09:00–10:00
	for seg := 0; seg < n.NumSegments(); seg++ {
		lists, err := idx.TimeListsRange(roadnet.SegmentID(seg), lo, hi, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(lists) != hi-lo+1 {
			t.Fatalf("range returned %d lists, want %d", len(lists), hi-lo+1)
		}
		for s := lo; s <= hi; s++ {
			single, err := idx.TimeListAt(roadnet.SegmentID(seg), s)
			if err != nil {
				t.Fatal(err)
			}
			batch := lists[s-lo].TimeList()
			if !reflect.DeepEqual(batch.Days, single.Days) || !reflect.DeepEqual(batch.Taxis, single.Taxis) {
				t.Fatalf("seg %d slot %d: range decode differs from single decode", seg, s)
			}
		}
	}
	// Out-of-range slots decode as empty, matching TimeListAt.
	lists, err := idx.TimeListsRange(0, idx.NumSlots()-1, idx.NumSlots()+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lists) != 3 || len(lists[1].Days) != 0 || len(lists[2].Days) != 0 {
		t.Fatalf("out-of-range slots should be empty, got %d lists", len(lists))
	}
}
