package conindex

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streach/internal/bitset"
	"streach/internal/race"
	"streach/internal/roadnet"
	"streach/internal/xerr"
)

// The per-row reference of a bounding round: what the round's union was
// when every row was fetched and ORed on its own, one after another —
// here straight from the reference expansions of heapref_test.go, so it
// shares neither the tables nor the fan-out with Pin.OrRows.

func expandedRow(x *Index, k Kind, seg roadnet.SegmentID, slot int) Row {
	far := k == Far || k == FarReverse
	list := refExpand(x, seg, slot, far)
	if k >= FarReverse {
		list = refExpandReverse(x, seg, slot, far)
	}
	return makeRow(list, bitset.New(x.net.NumSegments()))
}

func refUnion(x *Index, k Kind, segs []roadnet.SegmentID, slot int) bitset.Set {
	dst := bitset.New(x.net.NumSegments())
	for _, seg := range segs {
		expandedRow(x, k, seg, slot).OrInto(dst)
	}
	return dst
}

func allSegments(n *roadnet.Network) []roadnet.SegmentID {
	segs := make([]roadnet.SegmentID, n.NumSegments())
	for i := range segs {
		segs[i] = roadnet.SegmentID(i)
	}
	return segs
}

// atProcs runs the rest of the test at GOMAXPROCS n.
func atProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// settlesTo waits for the goroutine count to come back down to want: a
// worker that has called wg.Done may still be on its way out.
func settlesTo(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a worker outlived its round", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

func flightsEmpty(t *testing.T, x *Index) {
	t.Helper()
	for ti, tbl := range x.adjTables() {
		tbl.mu.Lock()
		n := len(tbl.flight)
		tbl.mu.Unlock()
		if n != 0 {
			t.Fatalf("table %d still holds %d flight entries", ti, n)
		}
	}
}

// TestOrRowsMatchesPerRowUnion: a cold round, then the same round warm,
// on all four tables and at 1, 2 and 8 Ps, is the per-row union, and the
// pin counts what it resolved and what it built.
func TestOrRowsMatchesPerRowUnion(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	segs := allSegments(n)
	const slot = 132
	for _, procs := range []int{1, 2, 8} {
		atProcs(t, procs)
		idx := build(t, n, ds)
		for k := Far; k < numKinds; k++ {
			want := refUnion(idx, k, segs, slot)
			pin := idx.NewPin()
			before := idx.Stats()
			for round := 0; round < 2; round++ {
				got := bitset.New(n.NumSegments())
				// The round names the slot a day on: it resolves as 132.
				if err := pin.OrRows(context.Background(), k, segs, slot+idx.NumSlots(), got); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("procs %d kind %d round %d: union differs from the per-row reference", procs, k, round)
				}
			}
			st, d := pin.Stats(), idx.Stats().Sub(before)
			nseg := int64(len(segs))
			if st.Fetched != 2*nseg || st.Materialised != nseg || st.Hits() != nseg {
				t.Fatalf("procs %d kind %d: pin stats %+v, want %d fetched, %d materialised", procs, k, st, 2*nseg, nseg)
			}
			if d.Materialised != nseg || d.Hits != nseg {
				t.Fatalf("procs %d kind %d: index stats moved by %+v, want %d hits and %d materialised", procs, k, d, nseg, nseg)
			}
		}
	}
}

// TestRacingRoundsExpandEachKeyOnce: several plans bounding through one
// cold slot at once run exactly one expansion per key between them, and
// what each pin says it built adds up to what the index says was built.
func TestRacingRoundsExpandEachKeyOnce(t *testing.T) {
	atProcs(t, 8)
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	segs := allSegments(n)
	const slot, plans = 140, 8
	want := refUnion(idx, FarReverse, segs, slot)
	pins := make([]*Pin, plans)
	var wg sync.WaitGroup
	for g := range pins {
		pins[g] = idx.NewPin()
		wg.Add(1)
		go func(p *Pin) {
			defer wg.Done()
			got := bitset.New(n.NumSegments())
			if err := p.OrRows(context.Background(), FarReverse, segs, slot, got); err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(got, want) {
				t.Error("a racing round's union differs from the per-row reference")
			}
		}(pins[g])
	}
	wg.Wait()
	var sum PinStats
	for _, p := range pins {
		sum = sum.Add(p.Stats())
	}
	st, nseg := idx.Stats(), int64(len(segs))
	if st.Materialised != nseg {
		t.Fatalf("%d expansions for %d distinct keys", st.Materialised, nseg)
	}
	if sum.Materialised != st.Materialised || sum.Hits() != st.Hits || sum.Fetched != plans*nseg {
		t.Fatalf("pins add up to %+v (hits %d), index to %+v", sum, sum.Hits(), st)
	}
	flightsEmpty(t, idx)
}

// foldAt is a context whose n-th Err poll runs fold before answering: a
// speed fold landing at a chosen checkpoint of a round, with no timing
// dependence.
type foldAt struct {
	context.Context
	polls atomic.Int64
	n     int64
	fold  func()
}

func (c *foldAt) Err() error {
	if c.polls.Add(1) == c.n {
		c.fold()
	}
	return nil
}

// TestRoundUnderSpeedFold folds faster maximum speeds into the round's
// slot while the round's expansions run. No row built from the speeds
// before the fold may be in the table afterwards, and the round still
// returns a union: each row as it was before the fold or after it.
func TestRoundUnderSpeedFold(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	segs := allSegments(n)
	const slot = 150
	for _, procs := range []int{1, 8} {
		atProcs(t, procs)
		idx := build(t, n, ds)
		pre := refUnion(idx, Far, segs[:len(segs)/2], slot)
		// Poll 1 is the round's check before its first key, poll 2 the
		// first expansion's own entry check — its slot generation is
		// recorded by then, so at one P the fold lands inside segs[0]'s
		// expansion.
		ctx := &foldAt{Context: context.Background(), n: 2}
		ctx.fold = func() {
			var samples []SpeedSample
			for seg := 0; seg < len(segs); seg += 7 {
				samples = append(samples, SpeedSample{Seg: roadnet.SegmentID(seg), Slot0: slot, Slot1: slot, Speed: 60})
			}
			if !idx.ObserveSpeedBatch(samples) {
				t.Error("the fold moved no bound; the fixture tests nothing")
			}
		}
		pin := idx.NewPin()
		got := bitset.New(n.NumSegments())
		if err := pin.OrRows(ctx, Far, segs[:len(segs)/2], slot, got); err != nil {
			t.Fatal(err)
		}
		if ctx.polls.Load() < ctx.n {
			t.Fatal("the round finished before the fold's checkpoint")
		}
		post := refUnion(idx, Far, segs[:len(segs)/2], slot)
		for w := range got {
			if pre[w]&^got[w] != 0 || got[w]&^post[w] != 0 {
				t.Fatalf("procs %d: the round's union is not between the pre-fold and the post-fold union", procs)
			}
		}
		if procs == 1 {
			if _, ok := idx.far.lookup(slot, segs[0]); ok {
				t.Fatal("the row whose expansion the fold interrupted was installed")
			}
		}
		for _, seg := range segs {
			if r, ok := idx.far.lookup(slot, seg); ok && !slices.Equal(r.AppendTo(nil), expandedRow(idx, Far, seg, slot).AppendTo(nil)) {
				t.Fatalf("procs %d: segment %d's installed row was built from the speeds before the fold", procs, seg)
			}
		}
		again := bitset.New(n.NumSegments())
		if err := pin.OrRows(context.Background(), Far, segs[:len(segs)/2], slot, again); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again, post) {
			t.Fatalf("procs %d: the round after the fold differs from the post-fold union", procs)
		}
	}
}

// TestCancelMidRound: wherever the cancelling poll lands — before a key,
// inside an expansion on any worker — the round returns the context's
// error after at most one more poll per worker, with every worker gone,
// no flight entry left and the keys still materialisable.
func TestCancelMidRound(t *testing.T) {
	atProcs(t, 8)
	n := testNetwork(t)
	ds := testDataset(t, n)
	segs := allSegments(n)
	const slot = 160
	for _, budget := range []int{0, 1, 9, 60} {
		idx := build(t, n, ds)
		pin := idx.NewPin()
		base := runtime.NumGoroutine()
		ctx := cancelAfterN(budget)
		err := pin.OrRows(ctx, NearReverse, segs, slot, bitset.New(n.NumSegments()))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: round returned %v, want context.Canceled", budget, err)
		}
		if late := -ctx.remaining.Load(); late > 8 {
			t.Fatalf("budget %d: %d polls after the cancelling one, want at most one per worker", budget, late)
		}
		settlesTo(t, base)
		flightsEmpty(t, idx)
		got := bitset.New(n.NumSegments())
		if err := pin.OrRows(context.Background(), NearReverse, segs, slot, got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, refUnion(idx, NearReverse, segs, slot)) {
			t.Fatalf("budget %d: the round after the cancelled one differs from the per-row reference", budget)
		}
	}
}

// TestWorkerPanicIsTheRoundsError: an expansion that panics on a worker
// (here on a speed table cut short under it) fails its round with an
// internal error instead of taking the process down, and leaves no
// flight entry to block the key's next lookup.
func TestWorkerPanicIsTheRoundsError(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	segs := allSegments(n)
	const slot = 170
	for _, procs := range []int{1, 8} {
		atProcs(t, procs)
		idx := build(t, n, ds)
		pin := idx.NewPin()
		base := runtime.NumGoroutine()
		whole := idx.maxSpeed
		idx.maxSpeed = whole[:slot*len(segs)+len(segs)/2] // the slot's upper segments index past the end
		err := pin.OrRows(context.Background(), Far, segs, slot, bitset.New(len(segs)))
		idx.maxSpeed = whole
		if err == nil || xerr.KindOf(err) != xerr.KindInternal {
			t.Fatalf("procs %d: round over a panicking expansion returned %v, want an internal error", procs, err)
		}
		settlesTo(t, base)
		flightsEmpty(t, idx)
		got := bitset.New(len(segs))
		if err := pin.OrRows(context.Background(), Far, segs, slot, got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, refUnion(idx, Far, segs, slot)) {
			t.Fatalf("procs %d: the round after the panic differs from the per-row reference", procs)
		}
	}
}

// TestAllHitRoundAllocatesNothing pins the warm path: one lookup per
// segment and one counter update — no allocation, which also means no
// goroutine (starting one allocates its closure), no flight entry.
func TestAllHitRoundAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not the steady state's under the race detector")
	}
	atProcs(t, 8)
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	segs := allSegments(n)
	const slot = 180
	warm(t, idx, slot, slot, 0)
	owned := bitset.New(n.NumSegments())
	for _, seg := range segs {
		owned.Add(int(seg))
	}
	sliced := idx.Slice(0, owned)
	for name, pin := range map[string]*Pin{"index": idx.NewPin(), "slice": sliced.NewPin()} {
		dst := bitset.New(n.NumSegments())
		before, base := idx.Stats(), runtime.NumGoroutine()
		const rounds = 50
		allocs := testing.AllocsPerRun(rounds-1, func() { // AllocsPerRun makes one warm-up call of its own
			if err := pin.OrRows(context.Background(), Near, segs, slot, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s pin: an all-hit round allocates %.1f times", name, allocs)
		}
		if now := runtime.NumGoroutine(); now != base {
			t.Fatalf("%s pin: goroutines went from %d to %d over all-hit rounds", name, base, now)
		}
		if d := idx.Stats().Sub(before); d.Hits != rounds*int64(len(segs)) || d.Materialised != 0 {
			t.Fatalf("%s pin: %d all-hit rounds moved the index stats by %+v", name, rounds, d)
		}
	}
}
