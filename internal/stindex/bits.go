package stindex

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"streach/internal/bitset"
	"streach/internal/traj"
)

// Time-list blob formats (DESIGN.md §2).
//
// The index writes one format, packed (v5): each distinct (day, taxi)
// visit of the (segment, slot) run as one 3-byte entry.
//
//	[0]=0xB3 [1]=0xFE                    two-byte marker (impossible as a
//	                                     v1 prefix: v1 byte 1 is the high
//	                                     byte of a <512 day count)
//	n x 3 bytes                          day<<15 | taxi, little endian,
//	                                     strictly ascending
//
// Day and taxi fit their 9 and 15 bits by construction, so an entry is
// valid whatever its bits; a blob is valid when its body is a whole
// number of entries and every entry is above the one before it.
//
// Two legacy formats are still read, from indexes written before the
// packed one, until a compaction rewrites their lists:
//
//	v1: u16 numDays, then per day: u16 day, u16 count, count x u32 taxi
//	    (sorted)
//	v2: [0]=0xB2 [1]=0xFE, u16 numDays, u16 maskWords, maskWords x u64
//	    day mask, then per present day ascending: u16 nwords, nwords x
//	    u64 taxi bitset

const (
	packedMarker0 = 0xB3
	packedMarker1 = 0xFE
	bitsMarker0   = 0xB2
	bitsMarker1   = 0xFE
)

// maxDays bounds the day index of every format (Build rejects larger
// datasets and LoadIndex larger metas; a packed entry gives the day 9
// bits). The legacy decoders reject anything past it instead of letting
// a damaged day wrap around traj.Day into a valid one.
const maxDays = 1 << 9

// maxTaxis bounds taxi IDs the same way (Build and AppendDelta reject
// larger ones; a packed entry gives the taxi 15 bits). A v1 list's last
// entry sizes the decoded bitset, so without the bound a few damaged
// bytes would ask for half a gigabyte.
const maxTaxis = 1 << 15

// TimeListBits is the decoded bitset form of one (segment, slot) time
// list: a day-presence bitmask plus per-day taxi bitsets. Instances
// returned by the index may be shared (cached); callers must not modify
// them.
type TimeListBits struct {
	// DayMask has bit d set when day d has traffic.
	DayMask []uint64
	// Days lists the present days ascending (the set bits of DayMask).
	Days []traj.Day
	// Bits is parallel to Days: the day's taxi bitset (bit t = taxi t).
	Bits [][]uint64
}

// TimeList expands the bitsets into the legacy sorted-ID representation.
func (b *TimeListBits) TimeList() *TimeList {
	tl := &TimeList{
		Days:  append([]traj.Day(nil), b.Days...),
		Taxis: make([][]traj.TaxiID, len(b.Bits)),
	}
	for i, words := range b.Bits {
		n := 0
		for _, w := range words {
			n += bits.OnesCount64(w)
		}
		taxis := make([]traj.TaxiID, 0, n)
		for wi, w := range words {
			for w != 0 {
				taxis = append(taxis, traj.TaxiID(wi<<6+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		tl.Taxis[i] = taxis
	}
	return tl
}

// BitsIntersect reports whether two taxi bitsets share a set bit. Words
// beyond the shorter slice are implicitly zero.
func BitsIntersect(a, b []uint64) bool { return bitset.Intersects(a, b) }

// OrBits folds src into dst, growing dst as needed, and returns dst.
func OrBits(dst, src []uint64) []uint64 { return bitset.OrGrow(dst, src) }

// encodePackedRun serializes one sorted (slot, segment) run of packed
// tuples in the packed format, dropping duplicate tuples. An entry is the
// tuple's low 24 bits, day<<15 | taxi.
func encodePackedRun(run []uint64) []byte {
	out := make([]byte, 2, 2+3*len(run))
	out[0], out[1] = packedMarker0, packedMarker1
	for i, t := range run {
		if i > 0 && t == run[i-1] {
			continue
		}
		out = append(out, byte(t), byte(t>>8), byte(t>>16))
	}
	return out
}

// isPackedBlob reports whether the blob carries the packed marker.
func isPackedBlob(blob []byte) bool {
	return len(blob) >= 2 && blob[0] == packedMarker0 && blob[1] == packedMarker1
}

// isBitsBlob reports whether the blob carries the v2 marker.
func isBitsBlob(blob []byte) bool {
	return len(blob) >= 2 && blob[0] == bitsMarker0 && blob[1] == bitsMarker1
}

// packedEntry returns entry k of a packed body.
func packedEntry(body []byte, k int) int {
	return int(body[3*k]) | int(body[3*k+1])<<8 | int(body[3*k+2])<<16
}

// checkPacked validates a packed body's framing: a whole number of
// entries. The decoder and the matcher check ordering as they walk.
func checkPacked(body []byte) error {
	if len(body)%3 != 0 {
		return fmt.Errorf("stindex: packed time list body of %d bytes is not a whole number of entries", len(body))
	}
	return nil
}

// errPackedOrder is the error for entry k of a packed body not being
// above its predecessor.
func errPackedOrder(k int) error {
	return fmt.Errorf("stindex: packed time list entry %d is not above its predecessor", k)
}

// decodeTimeListBits decodes a blob of any format into the bitset form.
// Every path carves the per-day word slices out of one backing
// allocation: a decode is a handful of allocations regardless of day
// count, which is what keeps cold-cache probes (and the first query
// after OpenSystem) cheap.
func decodeTimeListBits(blob []byte) (*TimeListBits, error) {
	if len(blob) < 2 {
		return &TimeListBits{}, nil
	}
	if isPackedBlob(blob) {
		return bitsFromPacked(blob[2:])
	}
	if !isBitsBlob(blob) {
		return bitsFromV1Blob(blob)
	}
	if len(blob) < 6 {
		return nil, fmt.Errorf("stindex: truncated bitset time list header")
	}
	numDays := int(binary.LittleEndian.Uint16(blob[2:4]))
	maskWords := int(binary.LittleEndian.Uint16(blob[4:6]))
	if maskWords > maxDays/64 {
		return nil, fmt.Errorf("stindex: bitset day mask of %d words is past the format's %d days", maskWords, maxDays)
	}
	off := 6
	if off+8*maskWords > len(blob) {
		return nil, fmt.Errorf("stindex: truncated bitset day mask")
	}
	b := &TimeListBits{
		DayMask: make([]uint64, maskWords),
		Days:    make([]traj.Day, 0, numDays),
		Bits:    make([][]uint64, numDays),
	}
	for i := 0; i < maskWords; i++ {
		b.DayMask[i] = binary.LittleEndian.Uint64(blob[off : off+8])
		off += 8
	}
	got := 0
	for wi, w := range b.DayMask {
		for w != 0 {
			b.Days = append(b.Days, traj.Day(wi<<6+bits.TrailingZeros64(w)))
			w &= w - 1
			got++
		}
	}
	if got != numDays {
		return nil, fmt.Errorf("stindex: bitset day count %d does not match mask popcount %d", numDays, got)
	}
	// Pass 1 over the entry headers: total words, for one backing array.
	total := 0
	scan := off
	for i := 0; i < numDays; i++ {
		if scan+2 > len(blob) {
			return nil, fmt.Errorf("stindex: truncated bitset entry header at day %d", i)
		}
		nw := int(binary.LittleEndian.Uint16(blob[scan : scan+2]))
		if scan+2+8*nw > len(blob) {
			return nil, fmt.Errorf("stindex: truncated bitset entry at day %d", i)
		}
		scan += 2 + 8*nw
		total += nw
	}
	backing := make([]uint64, total)
	used := 0
	for i := 0; i < numDays; i++ {
		nw := int(binary.LittleEndian.Uint16(blob[off : off+2]))
		off += 2
		words := backing[used : used+nw : used+nw]
		used += nw
		for j := 0; j < nw; j++ {
			words[j] = binary.LittleEndian.Uint64(blob[off : off+8])
			off += 8
		}
		b.Bits[i] = words
	}
	return b, nil
}

// bitsFromPacked decodes a packed body.
func bitsFromPacked(body []byte) (*TimeListBits, error) {
	if err := checkPacked(body); err != nil {
		return nil, err
	}
	// Pass 1: ordering, day count, and the words each day needs (entries
	// ascend, so a day's last entry carries its highest taxi).
	n := len(body) / 3
	numDays, total, prev := 0, 0, -1
	for k := 0; k < n; k++ {
		e := packedEntry(body, k)
		if e <= prev {
			return nil, errPackedOrder(k)
		}
		prev = e
		if k+1 == n || packedEntry(body, k+1)>>15 != e>>15 {
			numDays++
			total += (e&(maxTaxis-1))>>6 + 1
		}
	}
	b := &TimeListBits{
		Days: make([]traj.Day, 0, numDays),
		Bits: make([][]uint64, numDays),
	}
	if n > 0 {
		b.DayMask = make([]uint64, (prev>>15)>>6+1)
	}
	backing := make([]uint64, total)
	for k, i := 0, 0; k < n; i++ {
		day := packedEntry(body, k) >> 15
		end := k + 1
		for end < n && packedEntry(body, end)>>15 == day {
			end++
		}
		nw := (packedEntry(body, end-1)&(maxTaxis-1))>>6 + 1
		words := backing[:nw:nw]
		backing = backing[nw:]
		for ; k < end; k++ {
			taxi := packedEntry(body, k) & (maxTaxis - 1)
			words[taxi>>6] |= 1 << (uint(taxi) & 63)
		}
		b.DayMask[day>>6] |= 1 << (uint(day) & 63)
		b.Days = append(b.Days, traj.Day(day))
		b.Bits[i] = words
	}
	return b, nil
}

// bitsFromV1Blob converts a legacy/sparse (v1) blob — per day, a sorted
// u32 taxi list — straight to bitset form without materialising the
// intermediate TimeList.
func bitsFromV1Blob(blob []byte) (*TimeListBits, error) {
	numDays := int(binary.LittleEndian.Uint16(blob[:2]))
	b := &TimeListBits{
		Days: make([]traj.Day, 0, numDays),
		Bits: make([][]uint64, numDays),
	}
	// Pass 1: validate framing; per-day word need (taxis are sorted, so
	// each day's last entry is its maximum); day mask extent.
	total := 0
	maxWord := 0
	off := 2
	for i := 0; i < numDays; i++ {
		if off+4 > len(blob) {
			return nil, fmt.Errorf("stindex: truncated time list header at day %d", i)
		}
		day := int(binary.LittleEndian.Uint16(blob[off : off+2]))
		cnt := int(binary.LittleEndian.Uint16(blob[off+2 : off+4]))
		off += 4
		if day >= maxDays {
			return nil, fmt.Errorf("stindex: time list day %d is past the format's %d days", day, maxDays)
		}
		if off+4*cnt > len(blob) {
			return nil, fmt.Errorf("stindex: truncated time list entries at day %d", i)
		}
		if cnt > 0 {
			last := int(binary.LittleEndian.Uint32(blob[off+4*(cnt-1) : off+4*cnt]))
			if last >= maxTaxis {
				return nil, fmt.Errorf("stindex: time list taxi %d is past the format's %d taxis", last, maxTaxis)
			}
			total += last>>6 + 1
		}
		if w := day >> 6; w > maxWord {
			maxWord = w
		}
		off += 4 * cnt
	}
	if numDays > 0 {
		b.DayMask = make([]uint64, maxWord+1)
	}
	backing := make([]uint64, total)
	used := 0
	off = 2
	for i := 0; i < numDays; i++ {
		day := int(binary.LittleEndian.Uint16(blob[off : off+2]))
		cnt := int(binary.LittleEndian.Uint16(blob[off+2 : off+4]))
		off += 4
		b.DayMask[day>>6] |= 1 << (uint(day) & 63)
		b.Days = append(b.Days, traj.Day(day))
		var words []uint64
		if cnt > 0 {
			last := int(binary.LittleEndian.Uint32(blob[off+4*(cnt-1) : off+4*cnt]))
			nw := last>>6 + 1
			words = backing[used : used+nw : used+nw]
			used += nw
			for j := 0; j < cnt; j++ {
				t := binary.LittleEndian.Uint32(blob[off : off+4])
				if int(t>>6) >= nw {
					return nil, fmt.Errorf("stindex: unsorted time list entries at day %d", i)
				}
				words[t>>6] |= 1 << (t & 63)
				off += 4
			}
		}
		b.Bits[i] = words
	}
	return b, nil
}
