package conindex

import (
	"bytes"
	"container/heap"
	"slices"
	"testing"

	"streach/internal/bitset"
	"streach/internal/roadnet"
)

// The reference expansions: the travel-time Dijkstras as they were when
// the queue went through container/heap, boxed items and all. The tests
// below hold the typed heap to them — same pop order, same rows, same
// persisted bytes.

type refPQ []entryItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(v interface{}) { *q = append(*q, v.(entryItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// refExpand is the forward expansion in pop order.
func refExpand(x *Index, seg roadnet.SegmentID, slot int, far bool) []roadnet.SegmentID {
	n := x.net.NumSegments()
	budget := float64(x.slotSec)
	base := slot * n
	speeds := x.minSpeed
	if far {
		speeds = x.maxSpeed
	}
	enter := map[roadnet.SegmentID]float64{seg: 0}
	pq := &refPQ{}
	heap.Push(pq, entryItem{seg, 0})
	var out []roadnet.SegmentID
	for pq.Len() > 0 {
		it := heap.Pop(pq).(entryItem)
		if it.cost > enter[it.seg] {
			continue
		}
		sp := float64(loadSpeed(speeds, base+int(it.seg)))
		exit := budget + 1
		if sp > 0 {
			exit = it.cost + x.net.Segment(it.seg).Length/sp
		}
		if far && it.cost > budget || !far && exit > budget {
			continue
		}
		out = append(out, it.seg)
		if exit > budget {
			continue
		}
		succ := x.net.Outgoing(it.seg)
		rev := x.net.Segment(it.seg).Reverse
		for _, next := range succ {
			if next == rev && len(succ) > 1 {
				continue
			}
			if c, ok := enter[next]; !ok || exit < c {
				enter[next] = exit
				heap.Push(pq, entryItem{next, exit})
			}
		}
	}
	return out
}

// refExpandReverse is the mirrored expansion in pop order.
func refExpandReverse(x *Index, seg roadnet.SegmentID, slot int, far bool) []roadnet.SegmentID {
	n := x.net.NumSegments()
	budget := float64(x.slotSec)
	base := slot * n
	speeds := x.minSpeed
	if far {
		speeds = x.maxSpeed
	}
	timeOf := func(s roadnet.SegmentID) float64 {
		sp := float64(loadSpeed(speeds, base+int(s)))
		if sp <= 0 {
			return budget + 1
		}
		return x.net.Segment(s).Length / sp
	}
	segTime := timeOf(seg)
	if !far && segTime > budget {
		return nil
	}
	effBudget := budget
	if !far {
		effBudget = budget - segTime
	}
	enter := map[roadnet.SegmentID]float64{seg: 0}
	pq := &refPQ{}
	heap.Push(pq, entryItem{seg, 0})
	var out []roadnet.SegmentID
	for pq.Len() > 0 {
		it := heap.Pop(pq).(entryItem)
		if it.cost > enter[it.seg] || it.cost > effBudget {
			continue
		}
		out = append(out, it.seg)
		pred := x.net.Incoming(it.seg)
		rev := x.net.Segment(it.seg).Reverse
		for _, prev := range pred {
			if prev == rev && len(pred) > 1 {
				continue
			}
			c := it.cost + timeOf(prev)
			if c > effBudget {
				continue
			}
			if old, ok := enter[prev]; !ok || c < old {
				enter[prev] = c
				heap.Push(pq, entryItem{prev, c})
			}
		}
	}
	return out
}

// TestTypedHeapReplaysContainerHeap drives both queues with the same
// pushes and pops — costs drawn from a handful of values, so ties are
// the rule — and requires the same item out of every pop.
func TestTypedHeapReplaysContainerHeap(t *testing.T) {
	var typed entryPQ
	ref := &refPQ{}
	state := uint64(42)
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}
	for step := 0; step < 20000; step++ {
		if len(typed) != ref.Len() {
			t.Fatalf("step %d: lengths diverged: %d vs %d", step, len(typed), ref.Len())
		}
		if len(typed) > 0 && next(5) < 2 {
			got, want := typed.pop(), heap.Pop(ref).(entryItem)
			if got != want {
				t.Fatalf("step %d: typed heap popped %+v, container/heap %+v", step, got, want)
			}
			continue
		}
		it := entryItem{seg: roadnet.SegmentID(step), cost: float64(next(7))}
		typed.push(it)
		heap.Push(ref, it)
	}
}

// TestRowsAndAdjacencyMatchReference rebuilds every warmed row with the
// reference expansions, installs them in a second index, and requires
// row-for-row equality and a byte-identical adjacency blob.
func TestRowsAndAdjacencyMatchReference(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	idx := build(t, n, ds)
	warm(t, idx, 131, 133, 2)
	ref := build(t, n, ds)
	nseg := n.NumSegments()
	for ti, tbl := range ref.adjTables() {
		far, reverse := ti == 0 || ti == 2, ti >= 2
		for slot := 131; slot <= 133; slot++ {
			for seg := 0; seg < nseg; seg++ {
				id := roadnet.SegmentID(seg)
				list := refExpand(ref, id, slot, far)
				if reverse {
					list = refExpandReverse(ref, id, slot, far)
				}
				want := makeRow(list, bitset.New(nseg))
				tbl.put(slot, id, want)
				got, ok := idx.adjTables()[ti].lookup(slot, id)
				if !ok {
					t.Fatalf("table %d slot %d seg %d: not warmed", ti, slot, seg)
				}
				if !slices.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
					t.Fatalf("table %d slot %d seg %d: row differs from the reference expansion", ti, slot, seg)
				}
			}
		}
	}
	var got, want bytes.Buffer
	if err := idx.SaveAdjacency(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.SaveAdjacency(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("adjacency blob differs from the reference's (%d vs %d bytes)", got.Len(), want.Len())
	}
}
