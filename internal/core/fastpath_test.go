package core

import (
	"reflect"
	"sort"
	"testing"

	"streach/internal/conindex"
	"streach/internal/roadnet"
)

// TestResultsStableUnderCache runs each query twice: the first run
// populates the decoded time-list cache with the start list it turns
// into a probe set (candidates stream off the page and never enter the
// cache), the second reads it back from there. Results must be
// bit-identical either way, and the warm run must actually register
// cache hits.
func TestResultsStableUnderCache(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{VerifyAll: true})
	q := baseQuery(f)

	sqCold, err := oneShot(bg, e.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sqWarm, err := oneShot(bg, e.PlanReach, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sqCold.Segments, sqWarm.Segments) {
		t.Fatalf("SQMB result changed under the cache: %d vs %d segments",
			len(sqCold.Segments), len(sqWarm.Segments))
	}
	if !reflect.DeepEqual(sqCold.Probability, sqWarm.Probability) {
		t.Fatal("SQMB probabilities changed under the cache")
	}
	if sqWarm.Metrics.TLCacheHits == 0 {
		t.Fatal("warm SQMB run should hit the decoded cache")
	}

	esCold, err := oneShot(bg, e.PlanReachES, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	esWarm, err := oneShot(bg, e.PlanReachES, q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(esCold.Segments, esWarm.Segments) {
		t.Fatal("ES result changed under the cache")
	}
	// SQMB-vs-ES equality under the cache: every verify-all SQMB result
	// within the ES worst-case radius must carry the same verified
	// probability in both (both probe the same time lists).
	esSet := map[int32]float64{}
	for s, p := range esWarm.Probability {
		esSet[int32(s)] = p
	}
	for s, p := range sqWarm.Probability {
		if ep, ok := esSet[int32(s)]; ok && ep != p {
			t.Fatalf("segment %d: SQMB probability %v != ES probability %v", s, p, ep)
		}
	}
}

// TestParallelVerifyMatchesSerial pins the parallel TBS worker pool
// against the serial path: identical segments and probabilities.
func TestParallelVerifyMatchesSerial(t *testing.T) {
	f := getFixture(t)
	q := baseQuery(f)
	for _, opts := range []Options{{}, {VerifyAll: true}} {
		serialOpts, parOpts := opts, opts
		serialOpts.VerifyWorkers = 1
		parOpts.VerifyWorkers = 8
		serial := newEngine(t, serialOpts)
		par := newEngine(t, parOpts)

		sres, err := oneShot(bg, serial.PlanReach, q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := oneShot(bg, par.PlanReach, q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sres.Segments, pres.Segments) {
			t.Fatalf("VerifyAll=%v: parallel SQMB %d segments, serial %d",
				opts.VerifyAll, len(pres.Segments), len(sres.Segments))
		}
		if !reflect.DeepEqual(sres.Probability, pres.Probability) {
			t.Fatalf("VerifyAll=%v: parallel probabilities differ from serial", opts.VerifyAll)
		}
		if sres.Metrics.Evaluated != pres.Metrics.Evaluated {
			t.Fatalf("VerifyAll=%v: parallel evaluated %d, serial %d",
				opts.VerifyAll, pres.Metrics.Evaluated, sres.Metrics.Evaluated)
		}

		srev, err := oneShot(bg, serial.PlanReverse, q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := oneShot(bg, par.PlanReverse, q, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(srev.Segments, prev.Segments) {
			t.Fatalf("VerifyAll=%v: parallel reverse differs from serial", opts.VerifyAll)
		}
	}
}

// TestProbeWorkersIndependent verifies two workers over one probe do not
// share scratch: interleaved calls return the same values as isolated
// calls.
func TestProbeWorkersIndependent(t *testing.T) {
	f := getFixture(t)
	e := newEngine(t, Options{})
	q := baseQuery(f)
	lo, hi := e.slotWindow(q.Start, q.Duration)
	r0, _ := e.st.SnapLocation(q.Location)
	pr, err := e.newProbe(bg, []roadnet.SegmentID{r0}, lo, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := boundingRegion(e, q, conindex.Far)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(reg, func(i, j int) bool { return reg[i] < reg[j] })
	if len(reg) > 24 {
		reg = reg[:24]
	}
	w1, w2 := pr.worker(), pr.worker()
	for _, s := range reg {
		a, err := w1.prob(s)
		if err != nil {
			t.Fatal(err)
		}
		// Interleave a different segment on the second worker.
		if _, err := w2.prob(r0); err != nil {
			t.Fatal(err)
		}
		b, err := w2.prob(s)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("segment %d: worker probs differ (%v vs %v)", s, a, b)
		}
	}
}
