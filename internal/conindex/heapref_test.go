package conindex

import (
	"container/heap"
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"streach/internal/bitset"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/traj"
)

// The reference expansions: the travel-time Dijkstras as they were when
// the queue went through container/heap, boxed items, per-pop
// Network.Segment loads and all. The kernels now pop from a bucket queue
// in an order of their own, so the tests below hold them to the
// reference's rows and persisted bytes, not to its pop order — in every
// kind, on observed and fallback speeds, at the worst pop order (one
// bucket: pure LIFO) and after an aborted expansion left entries behind.

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

// TestRowsAndAdjacencyMatchReference requires every warmed row, in all
// four tables, to equal the reference expansion row for row.
func TestRowsAndAdjacencyMatchReference(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	idx := build(t, n, ds)
	warm(t, idx, 131, 133, 2)
	ref := build(t, n, ds)
	nseg := n.NumSegments()
	for ti, tbl := range idx.adjTables() {
		far, reverse := ti == 0 || ti == 2, ti >= 2
		for slot := 131; slot <= 133; slot++ {
			for seg := 0; seg < nseg; seg++ {
				id := roadnet.SegmentID(seg)
				list := refExpand(ref, id, slot, far)
				if reverse {
					list = refExpandReverse(ref, id, slot, far)
				}
				want := makeRow(list, bitset.New(nseg))
				got, ok := tbl.lookup(slot, id)
				if !ok {
					t.Fatalf("table %d slot %d seg %d: not warmed", ti, slot, seg)
				}
				if !slices.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
					t.Fatalf("table %d slot %d seg %d: row differs from the reference expansion", ti, slot, seg)
				}
			}
		}
	}
}

// Fixture slots: 11:00 lies inside the shift-limited fleets' hours, so
// its speeds are observed; 03:00 lies outside them, so every speed there
// is a free-flow fallback.
const observedSlot, fallbackSlot = 132, 36

// shiftIndex builds the Con-Index over a fleet that drives 06:00–12:00
// only, and checks that the fixture slots are what they claim.
func shiftIndex(t testing.TB, n *roadnet.Network, taxis int) *Index {
	t.Helper()
	ds, err := traj.Simulate(n, traj.SimConfig{
		Taxis: taxis, Days: 3, Profile: traj.DefaultSpeedProfile(), Seed: 5,
		ActiveStartSec: 6 * 3600, ActiveEndSec: 12 * 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx := build(t, n, ds)
	observed := 0
	for seg := 0; seg < n.NumSegments(); seg++ {
		id := roadnet.SegmentID(seg)
		observed += min(idx.Observations(id, observedSlot), 1)
		if idx.Observations(id, fallbackSlot) != 0 {
			t.Fatalf("segment %d has observations at the fallback slot", seg)
		}
	}
	if observed == 0 {
		t.Fatal("no segment has observations at the observed slot")
	}
	return idx
}

// bigCity is an 8x8 generated city re-segmented to 150 m, so that its
// many short segments put entries of different costs in one bucket.
func bigCity(t testing.TB) *roadnet.Network {
	t.Helper()
	n, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin:        geo.Point{Lat: 22.5, Lng: 114.0},
		Rows:          8,
		Cols:          8,
		SpacingMeters: 600,
		LocalFraction: 0.4,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err = roadnet.Resegment(n, 150); err != nil {
		t.Fatal(err)
	}
	return n
}

// kernel runs the kind's expansion directly, past the tables.
func kernel(ctx context.Context, x *Index, k Kind, seg roadnet.SegmentID, slot int) (Row, error) {
	if k >= FarReverse {
		return x.expandReverse(ctx, seg, slot, k == FarReverse)
	}
	return x.expand(ctx, seg, slot, k == Far)
}

// refKindRow is the kind's reference row.
func refKindRow(x *Index, k Kind, seg roadnet.SegmentID, slot int) Row {
	list := refExpand(x, seg, slot, k == Far)
	if k >= FarReverse {
		list = refExpandReverse(x, seg, slot, k == FarReverse)
	}
	return makeRow(list, bitset.New(x.net.NumSegments()))
}

// pinScratch makes every getScratch on x return one scratch (on one
// goroutine), so a test can look at and reuse what an expansion left.
func pinScratch(x *Index) *expScratch {
	sc := &expScratch{}
	x.scratch = sync.Pool{New: func() any { return sc }}
	return sc
}

// matchReference requires every row of the slots, in all four kinds,
// to equal the reference. It returns how many members the kernels
// appended more than once — segments re-popped at a lower cost after
// they had been admitted, which a cost-ordered queue never does.
func matchReference(t *testing.T, x *Index, slots ...int) (repeats int) {
	t.Helper()
	sc := pinScratch(x)
	for _, slot := range slots {
		for k := Kind(0); k < numKinds; k++ {
			for seg := 0; seg < x.net.NumSegments(); seg++ {
				id := roadnet.SegmentID(seg)
				sc.out = sc.out[:0] // a Near reverse row can end before getScratch
				got, err := kernel(context.Background(), x, k, id, slot)
				if err != nil {
					t.Fatal(err)
				}
				repeats += len(sc.out) - got.Len()
				if !slices.Equal(got.AppendTo(nil), refKindRow(x, k, id, slot).AppendTo(nil)) {
					t.Fatalf("kind %d slot %d seg %d: row differs from the reference expansion", k, slot, seg)
				}
			}
		}
	}
	return repeats
}

// TestPopOrderDoesNotMatter runs both kernels with a one-bucket queue —
// pure LIFO, a label-correcting search in the worst order — and
// requires the reference rows.
func TestPopOrderDoesNotMatter(t *testing.T) {
	idx := shiftIndex(t, testNetwork(t), 15)
	idx.buckets = 1
	if matchReference(t, idx, observedSlot, fallbackSlot) == 0 {
		t.Fatal("no member was admitted twice: the LIFO order changed nothing")
	}
}

// TestAbortedExpansionLeavesNoResidue cancels an expansion of each kind
// mid-way, then reuses its scratch for another row, which must equal
// the reference: entries the aborted expansion left queued must not
// leak into the next one.
func TestAbortedExpansionLeavesNoResidue(t *testing.T) {
	idx := shiftIndex(t, bigCity(t), 60) // testNetwork's Near rows pop too few entries to abort
	sc := pinScratch(idx)
	const next = 40
	for k := Kind(0); k < numKinds; k++ {
		// The row to abort: the first that pops past the first
		// checkpoint when it runs to the end.
		aborted := roadnet.SegmentID(-1)
		for sc.pops = 0; sc.pops <= ctxCheckInterval; {
			if aborted++; int(aborted) == idx.net.NumSegments() {
				t.Fatalf("kind %d: no row pops more than %d entries", k, ctxCheckInterval)
			}
			if _, err := kernel(context.Background(), idx, k, aborted, observedSlot); err != nil {
				t.Fatal(err)
			}
		}
		// The second ctx poll, at the first checkpoint, cancels.
		if _, err := kernel(cancelAfterN(1), idx, k, aborted, observedSlot); !errors.Is(err, context.Canceled) {
			t.Fatalf("kind %d: aborted expansion returned %v, want context.Canceled", k, err)
		}
		left := 0
		for _, b := range sc.q.b {
			left += len(b)
		}
		if left == 0 {
			t.Fatalf("kind %d: the aborted expansion left nothing queued; the fixture tests nothing", k)
		}
		got, err := kernel(context.Background(), idx, k, next, observedSlot)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.AppendTo(nil), refKindRow(idx, k, next, observedSlot).AppendTo(nil)) {
			t.Fatalf("kind %d: row after an aborted expansion differs from the reference", k)
		}
	}
}

// TestDeadEndsMatchReference holds the flattened no-U-turn rule to the
// reference where it bites: on a two-way line, the segment into each
// dead end has its own twin as the only way on, and the U-turn is
// allowed there.
func TestDeadEndsMatchReference(t *testing.T) {
	b := roadnet.NewBuilder()
	p := geo.Point{Lat: 22.5, Lng: 114.0}
	for i := 0; i < 3; i++ {
		from, to := geo.Offset(p, float64(i)*400, 0), geo.Offset(p, float64(i+1)*400, 0)
		if _, err := b.AddRoad(geo.Polyline{from, to}, roadnet.Primary, false); err != nil {
			t.Fatal(err)
		}
	}
	n := b.Build()
	deadEnds := 0
	for seg := 0; seg < n.NumSegments(); seg++ {
		id := roadnet.SegmentID(seg)
		if out := n.Outgoing(id); len(out) == 1 && out[0] == n.Segment(id).Reverse {
			deadEnds++
		}
	}
	if deadEnds != 2 {
		t.Fatalf("the line has %d dead ends, want 2", deadEnds)
	}
	idx, err := Build(n, &traj.Dataset{Days: 1}, Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	matchReference(t, idx, 0)
}

// TestBigCityMatchesReference compares every row of one observed and
// one fallback slot of a re-segmented 8x8 city, in all four kinds,
// with the reference expansions.
func TestBigCityMatchesReference(t *testing.T) {
	matchReference(t, shiftIndex(t, bigCity(t), 60), observedSlot, fallbackSlot)
}

// BenchmarkExpand times the kernels over every row of one observed slot
// of the re-segmented 8x8 city, all four kinds per iteration.
func BenchmarkExpand(b *testing.B) {
	n := bigCity(b)
	idx := shiftIndex(b, n, 60)
	sc := pinScratch(idx)
	nseg := n.NumSegments()
	pops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := Kind(0); k < numKinds; k++ {
			for seg := 0; seg < nseg; seg++ {
				sc.pops = 0 // a Near reverse row can end before getScratch
				if _, err := kernel(context.Background(), idx, k, roadnet.SegmentID(seg), observedSlot); err != nil {
					b.Fatal(err)
				}
				pops += sc.pops
			}
		}
	}
	rows := float64(b.N) * float64(numKinds) * float64(nseg)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(pops)/rows, "pops/row")
}
