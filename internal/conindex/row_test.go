package conindex

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"

	"streach/internal/bitset"
	"streach/internal/roadnet"
	"streach/internal/storage"
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
			// The same set arriving as dense words (the adjacency blob's
			// bitset record) packs to the same block.
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

// refRow is the adaptive two-form row this package held before Row went
// word-sparse — a sorted ID list below numSegments/32 members, a
// full-width bitset from there on — kept, with the writer that went
// with it, as the reference for the bytes of conindex.adj.
type refRow struct {
	ids  []roadnet.SegmentID
	bits bitset.Set
}

// refMakeRow builds the two-form row of a sorted, duplicate-free list.
func refMakeRow(list []roadnet.SegmentID, numSegments int) refRow {
	if len(list)*32 < numSegments {
		return refRow{ids: list}
	}
	bs := bitset.New(numSegments)
	for _, s := range list {
		bs.Add(int(s))
	}
	return refRow{bits: bs}
}

func refWriteAdjRow(w io.Writer, tableID uint8, slot int, seg roadnet.SegmentID, r refRow) (enc byte) {
	var buf [8]byte
	buf[0] = tableID
	w.Write(buf[:1])
	binary.LittleEndian.PutUint32(buf[:4], uint32(slot))
	w.Write(buf[:4])
	binary.LittleEndian.PutUint32(buf[:4], uint32(seg))
	w.Write(buf[:4])
	if r.bits != nil {
		words := r.bits
		for len(words) > 0 && words[len(words)-1] == 0 {
			words = words[:len(words)-1]
		}
		buf[0] = adjEncBitset
		w.Write(buf[:1])
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(words)))
		w.Write(buf[:4])
		for _, wd := range words {
			binary.LittleEndian.PutUint64(buf[:8], wd)
			w.Write(buf[:8])
		}
		return adjEncBitset
	}
	buf[0] = adjEncSparse
	w.Write(buf[:1])
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(r.ids)))
	w.Write(buf[:4])
	for _, s := range r.ids {
		binary.LittleEndian.PutUint32(buf[:4], uint32(s))
		w.Write(buf[:4])
	}
	return adjEncSparse
}

// refSaveAdjacency writes x's materialised tables the way the two-form
// writer did — the records, in the storage frame every derived file
// shares — and reports how many records of each encoding it wrote.
func refSaveAdjacency(x *Index, w io.Writer) (sparse, dense int, err error) {
	var rec bytes.Buffer
	var buf [4]byte
	for _, v := range []int{x.slotSec, x.net.NumSegments()} {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		rec.Write(buf[:])
	}
	numRows := 0
	for _, t := range x.adjTables() {
		numRows += t.size()
	}
	binary.LittleEndian.PutUint32(buf[:], uint32(numRows))
	rec.Write(buf[:])
	nseg := x.net.NumSegments()
	for ti, t := range x.adjTables() {
		t.forEach(func(slot int, seg roadnet.SegmentID, r Row) {
			if refWriteAdjRow(&rec, uint8(ti), slot, seg, refMakeRow(r.AppendTo(nil), nseg)) == adjEncBitset {
				dense++
			} else {
				sparse++
			}
		})
	}
	fw := storage.NewChecksumWriter(w, adjMagic, adjVersion)
	fw.Write(rec.Bytes())
	return sparse, dense, fw.Finish()
}

// TestAdjacencyGolden pins the bytes of conindex.adj: for the same
// warmed tables SaveAdjacency writes exactly what the two-form writer
// wrote — both record encodings, empty rows included — and a blob from
// that writer loads into the same rows.
func TestAdjacencyGolden(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	idx := build(t, n, ds)
	warmSome(idx)
	warm(t, idx, 270, 270, 1)
	// A materialised empty row (a Near list whose own segment cannot be
	// crossed in one Δt) must round-trip as a zero-count list record.
	idx.nearRev.put(7, 3, Row{})

	var got, want bytes.Buffer
	if err := idx.SaveAdjacency(&got); err != nil {
		t.Fatal(err)
	}
	sparse, dense, err := refSaveAdjacency(idx, &want)
	if err != nil {
		t.Fatal(err)
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("fixture must produce both record encodings (sparse %d, dense %d)", sparse, dense)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("conindex.adj differs from the two-form writer's: %d vs %d bytes", got.Len(), want.Len())
	}

	fresh := build(t, n, ds)
	if err := fresh.LoadAdjacency(bytes.NewReader(want.Bytes())); err != nil {
		t.Fatal(err)
	}
	for ti, tbl := range idx.adjTables() {
		loaded := fresh.adjTables()[ti]
		if loaded.size() != tbl.size() {
			t.Fatalf("table %d: loaded %d rows, want %d", ti, loaded.size(), tbl.size())
		}
		tbl.forEach(func(slot int, seg roadnet.SegmentID, r Row) {
			l, ok := loaded.lookup(slot, seg)
			if !ok || !sameBlock(l, r) {
				t.Fatalf("table %d slot %d seg %d: loaded row differs (found %v)", ti, slot, seg, ok)
			}
		})
	}
	if r, ok := fresh.nearRev.lookup(7, 3); !ok || r.Len() != 0 {
		t.Fatalf("the empty row did not come back materialised and empty (found %v, %d members)", ok, r.Len())
	}
	var again bytes.Buffer
	if err := fresh.SaveAdjacency(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Fatal("blob changed across a load and a save")
	}
}
