package stindex

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"streach/internal/bitset"
	"streach/internal/traj"
)

// Bitset time-list encoding (blob format v2, see DESIGN.md §Performance).
//
// The legacy (v1) encoding stores each day's taxis as a sorted u32 list,
// which forces the verification inner loop into a per-day merge scan. The
// v2 encoding stores the same information as bitsets so that probe
// intersections become word-AND loops:
//
//	[0]=0xB2 [1]=0xFE                    two-byte marker (impossible as a
//	                                     v1 prefix: v1 byte 1 is the high
//	                                     byte of a <512 day count)
//	u16 numDays                          popcount of the day mask
//	u16 maskWords, maskWords x u64      day-presence bitmask
//	per present day, ascending:
//	    u16 nwords, nwords x u64        taxi bitset, sized to the day's
//	                                     highest taxi ID
//
// Taxi bitsets are sized per day, so the format needs no global taxi
// bound; intersecting two bitsets only scans min(len) words because the
// missing high words are implicitly zero.

const (
	bitsMarker0 = 0xB2
	bitsMarker1 = 0xFE
)

// maxDays bounds the day index of either encoding (Build rejects larger
// datasets; the packed tuples give the day 9 bits). The decoders reject
// anything past it instead of letting a damaged day wrap around traj.Day
// into a valid one.
const maxDays = 1 << 9

// maxTaxis bounds taxi IDs the same way (Build and AppendDelta reject
// larger ones). A sparse list's last entry sizes the decoded bitset, so
// without the bound a few damaged bytes would ask for half a gigabyte.
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

// encodeTimeListRunAdaptive picks between the two encodings for the
// run. Dense lists (the ones probe verification spends its time on) win
// as bitsets; sparse lists — a handful of taxis with high IDs — stay as
// sorted u32 lists, which keeps blob sizes and therefore cold-read page
// I/O near parity with the v1 index. The sparse form must earn its keep:
// decoding it costs a bitset conversion on every cache miss, so it is
// chosen only when clearly smaller (below 2/3 of the bitset bytes), not
// merely a few bytes ahead. The decoder dispatches per blob, so the two
// formats coexist freely.
func encodeTimeListRunAdaptive(run []uint64) []byte {
	bits := encodeTimeListBitsRun(run)
	legacy := encodeTimeListRun(run)
	if 3*len(legacy) < 2*len(bits) {
		return legacy
	}
	return bits
}

// encodeTimeListBitsRun serializes one sorted, deduplicated (slot,
// segment) run of packed tuples in the v2 bitset format.
func encodeTimeListBitsRun(run []uint64) []byte {
	// Pass 1: day mask and per-day max taxi (tuples are sorted, so the
	// last tuple of each day's group carries its maximum taxi ID).
	var dayMask [8]uint64    // days < 512
	var dayWords [512]uint16 // taxi bitset words needed per day
	maxWord := 0
	numDays := 0
	size := 2 + 2 + 2
	for i, t := range run {
		if i > 0 && t == run[i-1] {
			continue
		}
		_, _, d, taxi := unpackTuple(t)
		w := d >> 6
		if dayMask[w]&(1<<(uint(d)&63)) == 0 {
			dayMask[w] |= 1 << (uint(d) & 63)
			numDays++
			size += 2
		}
		if w > maxWord {
			maxWord = w
		}
		if nw := uint16(taxi>>6 + 1); nw > dayWords[d] {
			size += 8 * int(nw-dayWords[d])
			dayWords[d] = nw
		}
	}
	maskWords := maxWord + 1
	size += 8 * maskWords
	out := make([]byte, 0, size)
	out = append(out, bitsMarker0, bitsMarker1)
	var tmp [8]byte
	binary.LittleEndian.PutUint16(tmp[:2], uint16(numDays))
	out = append(out, tmp[:2]...)
	binary.LittleEndian.PutUint16(tmp[:2], uint16(maskWords))
	out = append(out, tmp[:2]...)
	for i := 0; i < maskWords; i++ {
		binary.LittleEndian.PutUint64(tmp[:8], dayMask[i])
		out = append(out, tmp[:8]...)
	}
	// Pass 2: per-day taxi bitsets, in ascending day order (= run order).
	i := 0
	scratch := make([]uint64, 0, 8)
	for i < len(run) {
		if i > 0 && run[i] == run[i-1] {
			i++
			continue
		}
		_, _, day, _ := unpackTuple(run[i])
		nw := int(dayWords[day])
		scratch = scratch[:0]
		for len(scratch) < nw {
			scratch = append(scratch, 0)
		}
		for i < len(run) {
			if i > 0 && run[i] == run[i-1] {
				i++
				continue
			}
			_, _, d, taxi := unpackTuple(run[i])
			if d != day {
				break
			}
			scratch[taxi>>6] |= 1 << (uint(taxi) & 63)
			i++
		}
		binary.LittleEndian.PutUint16(tmp[:2], uint16(nw))
		out = append(out, tmp[:2]...)
		for _, w := range scratch {
			binary.LittleEndian.PutUint64(tmp[:8], w)
			out = append(out, tmp[:8]...)
		}
	}
	return out
}

// isBitsBlob reports whether the blob carries the v2 marker.
func isBitsBlob(blob []byte) bool {
	return len(blob) >= 2 && blob[0] == bitsMarker0 && blob[1] == bitsMarker1
}

// decodeTimeListBits decodes either blob format into the bitset form.
// Legacy/sparse (v1) blobs are converted on the fly, so indexes
// persisted before the bitset encoding keep working. Both paths carve
// the per-day word slices out of one backing allocation: a decode is a
// handful of allocations regardless of day count, which is what keeps
// cold-cache probes (and the first query after OpenSystem) cheap.
func decodeTimeListBits(blob []byte) (*TimeListBits, error) {
	if len(blob) < 2 {
		return &TimeListBits{}, nil
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
