package core

import (
	"testing"
	"time"

	"streach/internal/conindex"
	"streach/internal/roadnet"
)

// referenceRegion is the pre-bitset slice-based bounding region search
// (the exact code the vectorized boundingRegion replaced). It pins the
// word-level implementation to the original element-wise semantics:
// identical members AND identical round tags.
func referenceRegion(e *Engine, starts []roadnet.SegmentID, startOfDay, dur time.Duration, far bool) (round map[roadnet.SegmentID]int16, order []roadnet.SegmentID) {
	round = map[roadnet.SegmentID]int16{}
	add := func(s roadnet.SegmentID, r int) {
		if _, ok := round[s]; ok {
			return
		}
		round[s] = int16(r)
		order = append(order, s)
	}
	for _, r := range starts {
		add(r, 0)
	}
	slot0 := int(startOfDay.Seconds())
	slotSec := e.st.SlotSeconds()
	k := e.rounds(dur)
	for i := 0; i < k; i++ {
		if len(order) == e.net.NumSegments() {
			break
		}
		slot := (slot0 + i*slotSec) / slotSec
		snapshot := len(order)
		for j := 0; j < snapshot; j++ {
			for _, s := range conList(e.con, forwardKind(far), order[j], slot) {
				add(s, i+1)
			}
		}
	}
	return round, order
}

// conList is the references' view of a Con-Index row: RowCtx under a
// background context, expanded to a sorted ID slice.
func conList(con *conindex.Index, k conindex.Kind, seg roadnet.SegmentID, slot int) []roadnet.SegmentID {
	r, _ := con.RowCtx(bg, k, seg, slot)
	return r.AppendTo(nil)
}

func checkRegionAgainstReference(t *testing.T, name string, reg *region, wantRound map[roadnet.SegmentID]int16) {
	t.Helper()
	if reg.size() != len(wantRound) {
		t.Fatalf("%s: bitset region has %d members, reference %d", name, reg.size(), len(wantRound))
	}
	for s, r := range wantRound {
		if !reg.has(s) {
			t.Fatalf("%s: reference member %d missing from bitset region", name, s)
		}
		if reg.round[s] != r {
			t.Fatalf("%s: member %d tagged round %d, reference %d", name, s, reg.round[s], r)
		}
		if !reg.bits.Has(int(s)) {
			t.Fatalf("%s: member %d missing from region bitset", name, s)
		}
	}
	if got := reg.bits.Count(); got != len(wantRound) {
		t.Fatalf("%s: region bitset has %d bits, want %d", name, got, len(wantRound))
	}
}

// TestBoundingRegionMatchesSliceReference asserts the word-OR bounding
// phase reproduces the element-wise expansion exactly — members and
// round tags — for SQMB and the reverse pipeline, across durations that
// exercise one and several rounds.
// forwardKind is the forward table the far flag of the references names.
func forwardKind(far bool) conindex.Kind {
	if far {
		return conindex.Far
	}
	return conindex.Near
}

func TestBoundingRegionMatchesSliceReference(t *testing.T) {
	e := newEngine(t, Options{})
	f := getFixture(t)
	r0, ok := e.st.SnapLocation(f.center)
	if !ok {
		t.Fatal("snap failed")
	}
	for _, dur := range []time.Duration{4 * time.Minute, 10 * time.Minute, 25 * time.Minute} {
		for _, far := range []bool{true, false} {
			starts := []roadnet.SegmentID{r0}
			reg, err := e.boundingRegionPin(bg, e.con.NewPin(), forwardKind(far), starts, 11*time.Hour, dur)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := referenceRegion(e, starts, 11*time.Hour, dur, far)
			checkRegionAgainstReference(t, "forward", reg, want)
		}
	}
	// Reverse tables: the same growth loop over mirrored rows.
	rev, err := e.boundingRegionPin(bg, e.con.NewPin(), conindex.FarReverse, []roadnet.SegmentID{r0}, 11*time.Hour, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	wantRev := map[roadnet.SegmentID]int16{}
	orderRev := []roadnet.SegmentID{r0}
	wantRev[r0] = 0
	slotSec := e.st.SlotSeconds()
	for i := 0; i < e.rounds(10*time.Minute); i++ {
		slot := (int((11 * time.Hour).Seconds()) + i*slotSec) / slotSec
		snapshot := len(orderRev)
		for j := 0; j < snapshot; j++ {
			for _, s := range conList(e.con, conindex.FarReverse, orderRev[j], slot) {
				if _, ok := wantRev[s]; !ok {
					wantRev[s] = int16(i + 1)
					orderRev = append(orderRev, s)
				}
			}
		}
	}
	checkRegionAgainstReference(t, "reverse", rev, wantRev)
}

// TestUnifiedRegionMatchesSliceReference pins the vectorized MQMB
// Algorithm 3 (candidate set = row union diff, overlap rule via row
// membership) to the original producers-map implementation.
func TestUnifiedRegionMatchesSliceReference(t *testing.T) {
	e := newEngine(t, Options{})
	f := getFixture(t)
	starts := multiStarts(t, e, f, 3)

	for _, far := range []bool{true, false} {
		reg, err := e.unifiedRegionPin(bg, e.con.NewPin(), forwardKind(far), starts, 11*time.Hour, 10*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceUnified(e, starts, 11*time.Hour, 10*time.Minute, far)
		checkRegionAgainstReference(t, "unified", reg, want)
	}
}

// referenceUnified is the original element-wise Algorithm 3.
func referenceUnified(e *Engine, starts []roadnet.SegmentID, startOfDay, dur time.Duration, far bool) map[roadnet.SegmentID]int16 {
	round := map[roadnet.SegmentID]int16{}
	var order []roadnet.SegmentID
	add := func(s roadnet.SegmentID, r int) {
		if _, ok := round[s]; ok {
			return
		}
		round[s] = int16(r)
		order = append(order, s)
	}
	for _, r := range starts {
		add(r, 0)
	}
	k := e.rounds(dur)
	slotSec := e.st.SlotSeconds()
	for i := 0; i < k; i++ {
		if len(order) == e.net.NumSegments() {
			break
		}
		slot := (int(startOfDay.Seconds()) + i*slotSec) / slotSec
		snapshot := append([]roadnet.SegmentID(nil), order...)
		producers := map[roadnet.SegmentID][]roadnet.SegmentID{}
		for _, r := range snapshot {
			for _, b := range conList(e.con, forwardKind(far), r, slot) {
				if _, in := round[b]; in {
					continue
				}
				producers[b] = append(producers[b], r)
			}
		}
		if len(producers) == 0 {
			continue
		}
		cands := make([]roadnet.SegmentID, 0, len(producers))
		for b := range producers {
			cands = append(cands, b)
		}
		nearest := e.nearestAttribution(snapshot, cands)
		for b, prods := range producers {
			rs, ok := nearest[b]
			if !ok {
				continue
			}
			for _, p := range prods {
				if p == rs {
					add(b, i+1)
					break
				}
			}
		}
	}
	return round
}

// multiStarts snaps n busy, mutually distant locations.
func multiStarts(t *testing.T, e *Engine, f *fixture, n int) []roadnet.SegmentID {
	t.Helper()
	r0, ok := e.st.SnapLocation(f.center)
	if !ok {
		t.Fatal("snap failed")
	}
	starts := []roadnet.SegmentID{r0}
	for seg := 0; len(starts) < n && seg < e.net.NumSegments(); seg += e.net.NumSegments() / (n + 1) {
		id := roadnet.SegmentID(seg)
		dup := false
		for _, s := range starts {
			if s == id {
				dup = true
			}
		}
		if !dup {
			starts = append(starts, id)
		}
	}
	return starts
}

// TestPhaseMetrics asserts the per-phase split and adjacency counters
// are populated and consistent.
func TestPhaseMetrics(t *testing.T) {
	e := newEngine(t, Options{})
	f := getFixture(t)
	res, err := oneShot(bg, e.PlanReach, baseQuery(f))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.BoundNS <= 0 || m.VerifyNS <= 0 {
		t.Fatalf("phase timings should be positive: bound=%d verify=%d", m.BoundNS, m.VerifyNS)
	}
	if m.BoundNS+m.VerifyNS > m.Elapsed.Nanoseconds() {
		t.Fatalf("phase split %d+%d exceeds elapsed %d", m.BoundNS, m.VerifyNS, m.Elapsed.Nanoseconds())
	}
	if m.ConHits+m.ConMaterialised == 0 {
		t.Fatal("bounding phase should touch the Con-Index adjacency")
	}
	// A repeat query hits only materialised rows.
	res2, err := oneShot(bg, e.PlanReach, baseQuery(f))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.ConMaterialised != 0 {
		t.Fatalf("warm repeat materialised %d rows, want 0", res2.Metrics.ConMaterialised)
	}
	if res2.Metrics.ConHits == 0 {
		t.Fatal("warm repeat should report adjacency hits")
	}
}
