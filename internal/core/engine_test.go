package core

import (
	"testing"
	"time"

	"streach/internal/roadnet"
)

func TestRounds(t *testing.T) {
	e := newEngine(t, Options{}) // Δt = 300 s
	cases := []struct {
		dur  time.Duration
		want int
	}{
		{1 * time.Second, 1},
		{5 * time.Minute, 1},
		{5*time.Minute + time.Second, 2},
		{10 * time.Minute, 2},
		{35 * time.Minute, 7},
	}
	for _, c := range cases {
		if got := e.rounds(c.dur); got != c.want {
			t.Fatalf("rounds(%v) = %d, want %d", c.dur, got, c.want)
		}
	}
}

func TestSlotWindow(t *testing.T) {
	e := newEngine(t, Options{}) // Δt = 300 s, 288 slots
	cases := []struct {
		start  time.Duration
		dur    time.Duration
		lo, hi int
	}{
		{0, 5 * time.Minute, 0, 1},
		{11 * time.Hour, 10 * time.Minute, 132, 134},
		{23*time.Hour + 55*time.Minute, 10 * time.Minute, 287, 287}, // capped at end of day
	}
	for _, c := range cases {
		lo, hi := e.slotWindow(c.start, c.dur)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("slotWindow(%v, %v) = [%d, %d], want [%d, %d]", c.start, c.dur, lo, hi, c.lo, c.hi)
		}
	}
}

func TestRegionHelpers(t *testing.T) {
	r := newRegion(10)
	if r.size() != 0 {
		t.Fatal("fresh region should be empty")
	}
	r.add(3, 0)
	r.add(7, 1)
	r.add(3, 2) // duplicate: round must not change
	if r.size() != 2 {
		t.Fatalf("size = %d, want 2", r.size())
	}
	if !r.has(3) || !r.has(7) || r.has(5) {
		t.Fatal("membership wrong")
	}
	if r.round[3] != 0 {
		t.Fatalf("duplicate add changed round to %d", r.round[3])
	}
}

func TestProbeReusedAcrossCalls(t *testing.T) {
	// The probe's scratch buffers are reused; two consecutive calls on
	// different segments must not leak state between them.
	f := getFixture(t)
	e := newEngine(t, Options{})
	q := baseQuery(f)
	lo, hi := e.slotWindow(q.Start, q.Duration)
	r0, _ := e.st.SnapLocation(q.Location)
	pr, err := e.newProbe(bg, []roadnet.SegmentID{r0}, lo, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	w := pr.worker()
	a1, err := w.prob(r0)
	if err != nil {
		t.Fatal(err)
	}
	// A far-away segment should have a (likely) different, valid prob.
	far := roadnet.SegmentID(e.net.NumSegments() - 1)
	if _, err := w.prob(far); err != nil {
		t.Fatal(err)
	}
	a2, err := w.prob(r0)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("prob(r0) changed between calls: %v vs %v", a1, a2)
	}
	if w.m.Lists() == 0 {
		t.Fatal("three probes of a busy window walked no time list")
	}
}
