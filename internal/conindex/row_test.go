package conindex

import (
	"slices"
	"testing"

	"streach/internal/bitset"
	"streach/internal/roadnet"
)

// TestRowOracle holds every Row method to a plain map set, over the list
// shapes that sit on an edge of the encoding.
func TestRowOracle(t *testing.T) {
	const numSegments = 5438 // 85 words, the last one partly used
	seq := func(from, n, step int) []roadnet.SegmentID {
		out := make([]roadnet.SegmentID, n)
		for i := range out {
			out[i] = roadnet.SegmentID(from + i*step)
		}
		return out
	}
	cutoff := numSegments / 32
	cases := []struct {
		name string
		list []roadnet.SegmentID
	}{
		{"empty", nil},
		{"single", []roadnet.SegmentID{777}},
		{"first segment", []roadnet.SegmentID{0}},
		{"bits 63 and 64", []roadnet.SegmentID{63, 64}},
		{"bit 63 alone", []roadnet.SegmentID{63}},
		{"last segment", []roadnet.SegmentID{numSegments - 1}},
		{"first and last", []roadnet.SegmentID{numSegments - 1, 0}},
		{"one full word", seq(128, 64, 1)},
		{"cutoff-1 members", seq(5, cutoff-1, 31)},
		{"cutoff members", seq(5, cutoff, 31)},
		{"cutoff+1 members", seq(5, cutoff+1, 31)},
		{"every word", seq(1, 85, 64)},
		{"dense run", seq(1000, 900, 1)},
		{"duplicates, unsorted", []roadnet.SegmentID{900, 3, 900, 64, 3, 3, 5437, 64}},
	}
	probes := []bitset.Set{
		bitset.New(numSegments),
		bitset.New(64), // shorter than the segment space
		bitset.New(numSegments),
		bitset.New(numSegments),
		bitset.New(numSegments),
	}
	probes[1].Add(63)
	probes[2].Add(64)
	probes[3].Add(numSegments - 1)
	for i := 0; i < numSegments; i += 31 {
		probes[4].Add(i)
	}
	scratch := bitset.New(numSegments)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := map[roadnet.SegmentID]bool{}
			for _, s := range tc.list {
				want[s] = true
			}
			sorted := make([]roadnet.SegmentID, 0, len(want))
			for s := range want {
				sorted = append(sorted, s)
			}
			slices.Sort(sorted)

			r := makeRow(tc.list, scratch)
			if scratch.Count() != 0 {
				t.Fatal("makeRow left bits in its scratch")
			}
			if r.Len() != len(want) {
				t.Fatalf("Len = %d, want %d", r.Len(), len(want))
			}
			for s := roadnet.SegmentID(-2); s < numSegments+130; s++ {
				if r.Has(s) != want[s] {
					t.Fatalf("Has(%d) = %v, want %v", s, r.Has(s), want[s])
				}
			}
			if r.Has(maxRowSegments) || r.Has(maxRowSegments+63) {
				t.Fatal("Has beyond the addressable segment space")
			}
			if got := r.AppendTo([]roadnet.SegmentID{-7}); !slices.Equal(got[1:], sorted) || got[0] != -7 {
				t.Fatalf("AppendTo = %v, want -7 then %v", got, sorted)
			}
			var each []roadnet.SegmentID
			r.ForEach(func(s roadnet.SegmentID) { each = append(each, s) })
			if !slices.Equal(each, sorted) {
				t.Fatalf("ForEach = %v, want %v", each, sorted)
			}
			for pi, probe := range probes {
				wantHit := false
				for s := range want {
					if int(s) < len(probe)*64 && probe.Has(int(s)) {
						wantHit = true
					}
				}
				if r.Intersects(probe) != wantHit {
					t.Fatalf("Intersects(probe %d) = %v, want %v", pi, !wantHit, wantHit)
				}
			}
			dst := bitset.New(numSegments)
			dst.Add(1)
			dst.Add(numSegments - 2)
			r.OrInto(dst)
			for s := 0; s < numSegments; s++ {
				if dst.Has(s) != (want[roadnet.SegmentID(s)] || s == 1 || s == numSegments-2) {
					t.Fatalf("OrInto: bit %d = %v", s, dst.Has(s))
				}
			}
			// The same set arriving as dense words packs to the same
			// block.
			dense := bitset.New(numSegments)
			for s := range want {
				dense.Add(int(s))
			}
			if !sameBlock(r, packWords(0, dense)) {
				t.Fatal("packWords over dense words differs from makeRow over the list")
			}
			// One allocation holds the whole row.
			if len(tc.list) > 0 {
				if a := testing.AllocsPerRun(20, func() { makeRow(tc.list, scratch) }); a != 1 {
					t.Fatalf("makeRow allocates %v times, want 1", a)
				}
			}
		})
	}
	var zero Row
	if zero.Len() != 0 || zero.Has(0) || zero.Intersects(probes[4]) || len(zero.AppendTo(nil)) != 0 {
		t.Fatal("the zero Row is not the empty list")
	}
	if emptyRow.Len() != 0 || emptyRow.Has(0) || len(emptyRow.AppendTo(nil)) != 0 {
		t.Fatal("the materialised empty row is not the empty list")
	}
}

// sameBlock reports whether two rows hold identical index and word
// arrays.
func sameBlock(a, b Row) bool {
	ai, aw := a.parts()
	bi, bw := b.parts()
	return a.Len() == b.Len() && slices.Equal(ai, bi) && slices.Equal(aw, bw)
}

// adjSparse reports whether a row of n members over numSegments
// segments lies below the list/bitset cutoff the two-form rows used
// before Row went word-sparse: tests hold rows on both sides of it.
func adjSparse(n, numSegments int) bool { return n*32 < numSegments }

// TestRowMatchesExpansion asserts the row form expands to exactly the
// Dijkstra list, per (segment, slot), for all four tables, over rows on
// both sides of the list/bitset cutoff (adjSparse).
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
