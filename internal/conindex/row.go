package conindex

import (
	"math/bits"
	"slices"
	"unsafe"

	"streach/internal/bitset"
	"streach/internal/roadnet"
)

// Row is one materialised Near/Far list, held word-sparse: the non-zero
// 64-bit words of the row's bitset over the segments, each with its word
// index. A list is a travel-time ball around one segment, so its members
// crowd into a few words of the segment space (on a 5 438-segment
// network, 38–375 members in 8–24 of 85 words): the form is smaller than
// both a sorted ID list and a full-width bitset at every list size, and
// the bounding phase's union (OrInto) touches only the words that carry
// members. Word indexes are uint16 — stindex.Build caps a network at
// 2^22 segments, 65 536 words.
//
// A row is one allocation of uint64s, and a Row is the pointer to it,
// so a table cell holds a row with no box in between:
//
//	[0]        members n (low 32 bits) | non-zero words k (high 32 bits)
//	[1, 1+i)   the k word indexes, ascending, four uint16 to a word
//	[1+i, ...) the k words
//
// with i = ceil(k/4). The zero Row is the empty list. Rows are immutable
// once built and shared between callers.
type Row struct {
	p *uint64
}

// emptyRow is the materialised form of an empty list: a table cell must
// tell "known to be empty" from "not computed", so it cannot hold nil.
var emptyRow = Row{p: new(uint64)}

// maxRowSegments is the widest segment space a Row's uint16 word
// indexes can address.
const maxRowSegments = 1 << 22

// parts returns the row's word indexes and words. This is the one place
// that turns the block pointer back into slices: k is read from the
// block's own first word, which only packWords writes.
func (r Row) parts() (idx []uint16, words []uint64) {
	if r.p == nil {
		return nil, nil
	}
	k := int(*r.p >> 32)
	if k == 0 {
		return nil, nil
	}
	ni := (k + 3) / 4
	block := unsafe.Slice(r.p, 1+ni+k)
	return unsafe.Slice((*uint16)(unsafe.Pointer(&block[1])), k), block[1+ni:]
}

// packWords builds a Row from a span of dense bitset words, words[i]
// being word lo+i of the row.
func packWords(lo int, words []uint64) Row {
	n, k := 0, 0
	for _, w := range words {
		if w != 0 {
			n += bits.OnesCount64(w)
			k++
		}
	}
	if k == 0 {
		return Row{}
	}
	block := make([]uint64, 1+(k+3)/4+k)
	block[0] = uint64(n) | uint64(k)<<32
	r := Row{p: &block[0]}
	idx, out := r.parts()
	j := 0
	for i, w := range words {
		if w != 0 {
			idx[j], out[j] = uint16(lo+i), w
			j++
		}
	}
	return r
}

// makeRow builds a Row from an expansion list (any order, duplicates
// tolerated) through scratch, a zeroed bitset over the segments: set the
// members' bits, compress the span they fall in, zero it again. scratch
// is all zero on return.
func makeRow(list []roadnet.SegmentID, scratch bitset.Set) Row {
	if len(list) == 0 {
		return Row{}
	}
	lo, hi := len(scratch), 0
	for _, s := range list {
		scratch.Add(int(s))
		w := int(s) >> 6
		lo, hi = min(lo, w), max(hi, w)
	}
	r := packWords(lo, scratch[lo:hi+1])
	clear(scratch[lo : hi+1])
	return r
}

// Len returns the member count.
func (r Row) Len() int {
	if r.p == nil {
		return 0
	}
	return int(uint32(*r.p))
}

// Has reports membership: a binary search over the word indexes, then
// one bit.
func (r Row) Has(s roadnet.SegmentID) bool {
	if s < 0 || s >= maxRowSegments {
		return false
	}
	idx, words := r.parts()
	i, ok := slices.BinarySearch(idx, uint16(s>>6))
	return ok && words[i]&(1<<(uint(s)&63)) != 0
}

// Intersects reports whether the row shares a member with set, a bitset
// over the segment space (words beyond its end are implicitly zero).
func (r Row) Intersects(set bitset.Set) bool {
	idx, words := r.parts()
	for i, w := range words {
		if wi := int(idx[i]); wi < len(set) && set[wi]&w != 0 {
			return true
		}
	}
	return false
}

// OrInto unions the row into dst, a bitset over the full segment space:
// one OR per non-zero word of the row.
func (r Row) OrInto(dst bitset.Set) {
	idx, words := r.parts()
	for i, w := range words {
		dst[idx[i]] |= w
	}
}

// ForEach calls fn for every member in ascending ID order.
func (r Row) ForEach(fn func(roadnet.SegmentID)) {
	idx, words := r.parts()
	for i, w := range words {
		for base := int(idx[i]) << 6; w != 0; w &= w - 1 {
			fn(roadnet.SegmentID(base + bits.TrailingZeros64(w)))
		}
	}
}

// AppendTo appends the members to dst in ascending ID order.
func (r Row) AppendTo(dst []roadnet.SegmentID) []roadnet.SegmentID {
	idx, words := r.parts()
	for i, w := range words {
		for base := int(idx[i]) << 6; w != 0; w &= w - 1 {
			dst = append(dst, roadnet.SegmentID(base+bits.TrailingZeros64(w)))
		}
	}
	return dst
}
