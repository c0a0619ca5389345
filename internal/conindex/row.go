package conindex

import (
	"math/bits"
	"slices"
	"sort"

	"streach/internal/bitset"
	"streach/internal/roadnet"
)

// Row is one materialised Near/Far list in adaptive encoding. Dense rows
// are stored as segment bitsets so the bounding phase can union whole
// rows word-by-word; sparse rows stay as sorted ID lists, which keeps
// memory (and the persisted adjacency blob) proportional to list size.
// The break-even point mirrors the v2 time-list format: a bitset costs
// numSegments/8 bytes, a sparse list 4 bytes per member, so bitsets win
// past numSegments/32 members.
//
// Rows are immutable once built and shared between callers.
type Row struct {
	ids  []roadnet.SegmentID // sorted ascending; nil when bits is used
	bits bitset.Set
	n    int
}

// rowSparseCutoff reports whether a list of n members over numSegments
// segments is smaller as a sorted list than as a bitset.
func rowSparse(n, numSegments int) bool { return n*32 < numSegments }

// makeRow builds a Row from an expansion list (any order, duplicates
// tolerated).
func makeRow(list []roadnet.SegmentID, numSegments int) Row {
	if len(list) == 0 {
		return Row{}
	}
	if rowSparse(len(list), numSegments) {
		ids := append([]roadnet.SegmentID(nil), list...)
		slices.Sort(ids)
		// Dedupe in place (expansion lists are unique already; this is a
		// cheap invariant guard).
		out := ids[:1]
		for _, s := range ids[1:] {
			if s != out[len(out)-1] {
				out = append(out, s)
			}
		}
		return Row{ids: out, n: len(out)}
	}
	bs := bitset.New(numSegments)
	for _, s := range list {
		bs.Add(int(s))
	}
	return Row{bits: bs, n: bs.Count()}
}

// rowFromIDs builds a Row from a sorted, deduplicated ID list (the
// adjacency-blob decode path).
func rowFromIDs(ids []roadnet.SegmentID, numSegments int) Row {
	if len(ids) == 0 {
		return Row{}
	}
	if rowSparse(len(ids), numSegments) {
		return Row{ids: ids, n: len(ids)}
	}
	bs := bitset.New(numSegments)
	for _, s := range ids {
		bs.Add(int(s))
	}
	return Row{bits: bs, n: bs.Count()}
}

// rowFromBits builds a Row from bitset words (the adjacency-blob decode
// path); words may be trimmed short of the full segment count.
func rowFromBits(words []uint64, numSegments int) Row {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return Row{}
	}
	if rowSparse(n, numSegments) {
		ids := make([]roadnet.SegmentID, 0, n)
		bitset.ForEach(words, func(i int) { ids = append(ids, roadnet.SegmentID(i)) })
		return Row{ids: ids, n: n}
	}
	bs := bitset.New(numSegments)
	copy(bs, words)
	return Row{bits: bs, n: n}
}

// Len returns the member count.
func (r Row) Len() int { return r.n }

// Has reports membership. Sparse rows binary-search; dense rows test one
// bit.
func (r Row) Has(s roadnet.SegmentID) bool {
	if r.bits != nil {
		return r.bits.Has(int(s))
	}
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= s })
	return i < len(r.ids) && r.ids[i] == s
}

// Intersects reports whether the row shares a member with set, a bitset
// over the full segment space.
func (r Row) Intersects(set bitset.Set) bool {
	if r.bits != nil {
		return bitset.Intersects(r.bits, set)
	}
	for _, s := range r.ids {
		if set.Has(int(s)) {
			return true
		}
	}
	return false
}

// OrInto unions the row into dst, a bitset over the full segment space.
// Dense rows fold word-by-word; sparse rows set individual bits.
func (r Row) OrInto(dst bitset.Set) {
	if r.bits != nil {
		bitset.Or(dst, r.bits)
		return
	}
	for _, s := range r.ids {
		dst.Add(int(s))
	}
}

// ForEach calls fn for every member in ascending ID order.
func (r Row) ForEach(fn func(roadnet.SegmentID)) {
	if r.bits != nil {
		bitset.ForEach(r.bits, func(i int) { fn(roadnet.SegmentID(i)) })
		return
	}
	for _, s := range r.ids {
		fn(s)
	}
}

// AppendTo appends the members to dst in ascending ID order.
func (r Row) AppendTo(dst []roadnet.SegmentID) []roadnet.SegmentID {
	r.ForEach(func(s roadnet.SegmentID) { dst = append(dst, s) })
	return dst
}
