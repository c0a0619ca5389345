package stindex

import (
	"math/rand"
	"reflect"
	"testing"

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
		// Reference decode: the legacy encoder over the same run.
		legacy, err := decodeTimeList(encodeTimeListRun(run))
		if err != nil {
			t.Fatal(err)
		}
		for _, blob := range [][]byte{encodeTimeListBitsRun(run), encodePackedRun(run)} {
			bits, err := decodeTimeListBits(blob)
			if err != nil {
				t.Fatal(err)
			}
			got := bits.TimeList()
			if !reflect.DeepEqual(got.Days, legacy.Days) {
				t.Fatalf("trial %d %x: days %v != %v", trial, blob[:2], got.Days, legacy.Days)
			}
			if !reflect.DeepEqual(got.Taxis, legacy.Taxis) {
				t.Fatalf("trial %d %x: taxis %v != %v", trial, blob[:2], got.Taxis, legacy.Taxis)
			}
			// The day mask must agree with the day list.
			for _, d := range bits.Days {
				if bits.DayMask[int(d)>>6]&(1<<(uint(d)&63)) == 0 {
					t.Fatalf("trial %d %x: day %d missing from mask", trial, blob[:2], d)
				}
			}
		}
	}
}

// TestFormatsDecodeAndMatchAlike: one run written as v1, v2 and packed
// decodes to the same TimeListBits and matches the same days.
func TestFormatsDecodeAndMatchAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const days, maxTaxi = 70, 300
	for trial := 0; trial < 30; trial++ {
		run := randomRun(rng, 4, 2, days, maxTaxi, 1+rng.Intn(150))
		sets := randomSets(rng, 1+rng.Intn(3), days, maxTaxi, 0.3)
		var want *TimeListBits
		wantBest := -1
		for _, blob := range [][]byte{encodeTimeListRun(run), encodeTimeListBitsRun(run), encodePackedRun(run)} {
			got, err := decodeTimeListBits(blob)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := streamMatch(days, sets, [][]byte{blob})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want, wantBest = got, st.best()
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %x decodes to %+v, v1 to %+v", trial, blob[:2], got, want)
			}
			if st.best() != wantBest {
				t.Fatalf("trial %d: %x matches %d days, v1 %d", trial, blob[:2], st.best(), wantBest)
			}
		}
	}
}

func TestBitsDecodeLegacyBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	run := randomRun(rng, 1, 2, 30, 250, 40)
	legacyBlob := encodeTimeListRun(run)
	bits, err := decodeTimeListBits(legacyBlob)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := decodeTimeList(legacyBlob)
	if err != nil {
		t.Fatal(err)
	}
	got := bits.TimeList()
	if !reflect.DeepEqual(got.Days, legacy.Days) || !reflect.DeepEqual(got.Taxis, legacy.Taxis) {
		t.Fatal("legacy blob decoded through the bitset path differs")
	}
}

func TestBitsEmptyBlob(t *testing.T) {
	for _, blob := range [][]byte{nil, encodePackedRun(nil)} {
		b, err := decodeTimeListBits(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Days) != 0 || len(b.Bits) != 0 {
			t.Fatalf("empty blob %x should decode to an empty list", blob)
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
	for _, blob := range [][]byte{encodeTimeListBitsRun(run), encodePackedRun(run)} {
		b, err := decodeTimeListBits(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Days) != 2 || b.Days[0] != 2 || b.Days[1] != 65 {
			t.Fatalf("%x: days = %v, want [2 65]", blob[:2], b.Days)
		}
		if got := b.Bits[0]; got[0]&(1<<5) == 0 || got[1]&(1<<6) == 0 {
			t.Fatalf("%x: day 2 bitset wrong: %v", blob[:2], got)
		}
		if got := b.Bits[1]; got[0]&(1<<1) == 0 {
			t.Fatalf("%x: day 65 bitset wrong: %v", blob[:2], got)
		}
		if len(b.DayMask) != 2 || b.DayMask[0] != 1<<2 || b.DayMask[1] != 1<<1 {
			t.Fatalf("%x: day mask = %v", blob[:2], b.DayMask)
		}
	}
}

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
		if got := BitsIntersect(c.a, c.b); got != c.want {
			t.Fatalf("case %d: BitsIntersect = %v, want %v", i, got, c.want)
		}
	}
}

func TestOrBits(t *testing.T) {
	dst := OrBits(nil, []uint64{0b01, 0, 1 << 63})
	dst = OrBits(dst, []uint64{0b10})
	if dst[0] != 0b11 || dst[2] != 1<<63 {
		t.Fatalf("OrBits = %v", dst)
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
