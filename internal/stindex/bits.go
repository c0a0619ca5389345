package stindex

import (
	"fmt"

	"streach/internal/traj"
)

// Time-list blob format (DESIGN.md §2): packed, each distinct (day,
// taxi) visit of the (segment, slot) run as one 3-byte entry.
//
//	[0]=0xB3 [1]=0xFE                    two-byte marker
//	n x 3 bytes                          day<<15 | taxi, little endian,
//	                                     strictly ascending
//
// Day and taxi fit their 9 and 15 bits by construction, so an entry is
// valid whatever its bits; a blob is valid when it carries the marker,
// its body is a whole number of entries and every entry is above the one
// before it. A blob without the marker is an error: the layouts before
// the packed one are not read (an index that holds them has a meta the
// loader refuses, and is rebuilt).

const (
	packedMarker0 = 0xB3
	packedMarker1 = 0xFE
)

// maxDays bounds the day index (Build rejects larger datasets and
// LoadIndex larger metas; a packed entry gives the day 9 bits).
const maxDays = 1 << 9

// maxTaxis bounds taxi IDs the same way: a packed entry gives the taxi
// 15 bits, which is traj.MaxTaxis (Build rejects larger IDs through
// Dataset.CheckTrajectory, AppendDelta on its own).
const maxTaxis = traj.MaxTaxis

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

// encodePackedRun serializes one sorted (slot, segment) run of packed
// tuples in the packed format, dropping duplicate tuples. An entry is the
// tuple's low 24 bits, day<<15 | taxi.
func encodePackedRun(run []uint64) []byte {
	return appendPackedRun(make([]byte, 0, 2+3*len(run)), run)
}

// appendPackedRun appends the packed blob of one sorted run to out: the
// run's packed tuples, or just their 24-bit entries (Build's form), with
// duplicates dropped.
func appendPackedRun[E uint32 | uint64](out []byte, run []E) []byte {
	out = append(out, packedMarker0, packedMarker1)
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

// errNotPacked is the error for a blob without the packed marker.
func errNotPacked(blob []byte) error {
	return fmt.Errorf("stindex: time list of %d bytes does not carry the packed marker", len(blob))
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

// decodeTimeListBits decodes a packed blob into the bitset form. The
// per-day word slices are carved out of one backing allocation: a decode
// is a handful of allocations regardless of day count, which is what
// keeps cold-cache probes (and the first query after OpenSystem) cheap.
func decodeTimeListBits(blob []byte) (*TimeListBits, error) {
	if !isPackedBlob(blob) {
		return nil, errNotPacked(blob)
	}
	return bitsFromPacked(blob[2:])
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
