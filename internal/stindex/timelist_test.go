package stindex

import (
	"math/bits"

	"streach/internal/roadnet"
	"streach/internal/traj"
)

// TimeList is a decoded time list as sorted taxi IDs per day: the form
// tests compare decodes in.
type TimeList struct {
	Days  []traj.Day
	Taxis [][]traj.TaxiID // parallel to Days
}

// TaxisOn returns the taxi IDs for a day (nil when the day has none).
func (tl *TimeList) TaxisOn(day traj.Day) []traj.TaxiID {
	for i, d := range tl.Days {
		if d == day {
			return tl.Taxis[i]
		}
	}
	return nil
}

// TimeList expands the bitsets into sorted taxi IDs.
func (b *TimeListBits) TimeList() *TimeList {
	tl := &TimeList{
		Days:  append([]traj.Day(nil), b.Days...),
		Taxis: make([][]traj.TaxiID, len(b.Bits)),
	}
	for i, words := range b.Bits {
		taxis := []traj.TaxiID{}
		for wi, w := range words {
			for ; w != 0; w &= w - 1 {
				taxis = append(taxis, traj.TaxiID(wi<<6+bits.TrailingZeros64(w)))
			}
		}
		tl.Taxis[i] = taxis
	}
	return tl
}

// timeListBitsAt reads the time list of (segment, slot) in bitset form:
// the one-slot window of TimeListsRange, as the forward probe reads a
// source's start list.
func (x *Index) timeListBitsAt(seg roadnet.SegmentID, slot int) (*TimeListBits, error) {
	lists, err := x.TimeListsRange(seg, slot, slot, nil)
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// TimeListAt reads the time list of (segment, slot) as timeListBitsAt
// does and expands it. A TimeList with no days means no traffic.
func (x *Index) TimeListAt(seg roadnet.SegmentID, slot int) (*TimeList, error) {
	b, err := x.timeListBitsAt(seg, slot)
	if err != nil {
		return nil, err
	}
	return b.TimeList(), nil
}

// runTimeList is the time list of a sorted run of packed tuples, built
// from the tuples themselves: the reference decodes are compared with.
func runTimeList(run []uint64) *TimeList {
	tl := &TimeList{}
	for i, t := range run {
		if i > 0 && t == run[i-1] {
			continue
		}
		_, _, day, taxi := unpackTuple(t)
		if n := len(tl.Days); n == 0 || tl.Days[n-1] != traj.Day(day) {
			tl.Days = append(tl.Days, traj.Day(day))
			tl.Taxis = append(tl.Taxis, nil)
		}
		tl.Taxis[len(tl.Taxis)-1] = append(tl.Taxis[len(tl.Taxis)-1], traj.TaxiID(taxi))
	}
	return tl
}
