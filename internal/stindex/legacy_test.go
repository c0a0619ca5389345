package stindex

import (
	"encoding/binary"
	"fmt"

	"streach/internal/traj"
)

// Writers of the legacy time-list formats (v1 sorted-ID lists, v2
// bitsets) and the v1 reference decoder. The index writes only the
// packed format; these build the fixtures that pin how indexes written
// before it still read and verify.

// encodeTimeListRun serializes one sorted (slot, segment) run of packed
// tuples in the v1 format:
//
//	u16 numDays, then per day: u16 day, u16 count, count x u32 taxi
func encodeTimeListRun(run []uint64) []byte {
	// Count distinct days first.
	numDays := 0
	prevDay := -1
	for i, t := range run {
		if i > 0 && t == run[i-1] {
			continue
		}
		_, _, d, _ := unpackTuple(t)
		if d != prevDay {
			numDays++
			prevDay = d
		}
	}
	out := make([]byte, 0, 2+len(run)*4+numDays*4)
	var tmp [4]byte
	binary.LittleEndian.PutUint16(tmp[:2], uint16(numDays))
	out = append(out, tmp[:2]...)
	i := 0
	for i < len(run) {
		if i > 0 && run[i] == run[i-1] {
			i++
			continue
		}
		_, _, day, _ := unpackTuple(run[i])
		// Collect this day's distinct taxis (already sorted by packing).
		start := len(out)
		binary.LittleEndian.PutUint16(tmp[:2], uint16(day))
		out = append(out, tmp[:2]...)
		out = append(out, 0, 0) // count placeholder
		count := 0
		for i < len(run) {
			if i > 0 && run[i] == run[i-1] {
				i++
				continue
			}
			_, _, d, taxi := unpackTuple(run[i])
			if d != day {
				break
			}
			binary.LittleEndian.PutUint32(tmp[:4], uint32(taxi))
			out = append(out, tmp[:4]...)
			count++
			i++
		}
		binary.LittleEndian.PutUint16(out[start+2:start+4], uint16(count))
	}
	return out
}

func decodeTimeList(blob []byte) (*TimeList, error) {
	if len(blob) < 2 {
		return &TimeList{}, nil
	}
	n := int(binary.LittleEndian.Uint16(blob[:2]))
	tl := &TimeList{Days: make([]traj.Day, 0, n), Taxis: make([][]traj.TaxiID, 0, n)}
	off := 2
	for i := 0; i < n; i++ {
		if off+4 > len(blob) {
			return nil, fmt.Errorf("stindex: truncated time list header at day %d", i)
		}
		day := traj.Day(binary.LittleEndian.Uint16(blob[off : off+2]))
		cnt := int(binary.LittleEndian.Uint16(blob[off+2 : off+4]))
		off += 4
		if off+4*cnt > len(blob) {
			return nil, fmt.Errorf("stindex: truncated time list entries at day %d", i)
		}
		taxis := make([]traj.TaxiID, cnt)
		for j := 0; j < cnt; j++ {
			taxis[j] = traj.TaxiID(binary.LittleEndian.Uint32(blob[off : off+4]))
			off += 4
		}
		tl.Days = append(tl.Days, day)
		tl.Taxis = append(tl.Taxis, taxis)
	}
	return tl, nil
}

// encodeTimeListBitsRun serializes one sorted (slot, segment) run of
// packed tuples in the v2 bitset format.
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
