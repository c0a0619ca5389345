package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"streach"
)

// durations for Fig 4.1/4.8a sweeps: L in {5, 10, ..., 35} minutes.
var durationSweep = []time.Duration{
	5 * time.Minute, 10 * time.Minute, 15 * time.Minute, 20 * time.Minute,
	25 * time.Minute, 30 * time.Minute, 35 * time.Minute,
}

// probSweep for Fig 4.3/4.4: Prob in {20%, ..., 100%}.
var probSweep = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// Fig41Row is one point of Fig 4.1: effect of duration L on s-query
// processing time (a) and reachable road length (b).
type Fig41Row struct {
	L          time.Duration
	ES         time.Duration // baseline
	SQMB5      time.Duration // SQMB+TBS, Δt = 5 min
	SQMB10     time.Duration // SQMB+TBS, Δt = 10 min
	RoadKm5    float64
	RoadKm10   float64
	ESEval     int
	SQMB5Eval  int
	SQMB10Eval int
}

// Fig41 sweeps duration L with T=11:00, Prob=20% (Table 4.2 defaults).
func Fig41(w *World) ([]Fig41Row, error) {
	loc, err := w.QueryLocation()
	if err != nil {
		return nil, err
	}
	sys5, err := w.System(300)
	if err != nil {
		return nil, err
	}
	sys10, err := w.System(600)
	if err != nil {
		return nil, err
	}
	// Index construction is offline in the thesis: warm the Con-Index
	// tables for the query window before timing.
	for _, sys := range []*streach.System{sys5, sys10} {
		if err := sys.WarmCtx(context.Background(), 11*time.Hour, 35*time.Minute); err != nil {
			return nil, err
		}
	}
	var rows []Fig41Row
	for _, L := range durationSweep {
		q := streach.ReachRequest(loc, 11*time.Hour, L, 0.2)
		es, err := timedReach(sys5, q, exhaustive)
		if err != nil {
			return nil, err
		}
		r5, err := timedReach(sys5, q)
		if err != nil {
			return nil, err
		}
		r10, err := timedReach(sys10, q)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig41Row{
			L:  L,
			ES: es.Metrics.Elapsed, SQMB5: r5.Metrics.Elapsed, SQMB10: r10.Metrics.Elapsed,
			RoadKm5: r5.RoadKm, RoadKm10: r10.RoadKm,
			ESEval: es.Metrics.Evaluated, SQMB5Eval: r5.Metrics.Evaluated, SQMB10Eval: r10.Metrics.Evaluated,
		})
	}
	return rows, nil
}

// PrintFig41 renders the sweep like the paper's two panels.
func PrintFig41(out io.Writer, rows []Fig41Row) {
	fmt.Fprintln(out, "Fig 4.1 — effect of duration L (T=11:00, Prob=20%)")
	fmt.Fprintln(out, "   L(min)      ES    SQMB+TBS(5m)   SQMB+TBS(10m)   evalES  eval5  eval10   km(5m)  km(10m)")
	for _, r := range rows {
		fmt.Fprintf(out, "   %6.0f  %8s  %12s  %14s  %6d  %5d  %6d  %7.1f  %7.1f\n",
			r.L.Minutes(), fmtDur(r.ES), fmtDur(r.SQMB5), fmtDur(r.SQMB10),
			r.ESEval, r.SQMB5Eval, r.SQMB10Eval, r.RoadKm5, r.RoadKm10)
	}
}

// Fig42Region summarises an example Prob-reachable region (Fig 4.2).
type Fig42Region struct {
	L        time.Duration
	Segments int
	RoadKm   float64
	SpanKm   float64 // diagonal of the region bounding box
}

// Fig42 renders the two example regions (L = 5, 10 min; Prob = 20%).
func Fig42(w *World) ([]Fig42Region, error) {
	loc, err := w.QueryLocation()
	if err != nil {
		return nil, err
	}
	sys, err := w.System(300)
	if err != nil {
		return nil, err
	}
	if err := sys.WarmCtx(context.Background(), 11*time.Hour, 10*time.Minute); err != nil {
		return nil, err
	}
	var out []Fig42Region
	for _, L := range []time.Duration{5 * time.Minute, 10 * time.Minute} {
		region, err := sys.Do(context.Background(), streach.ReachRequest(loc, 11*time.Hour, L, 0.2))
		if err != nil {
			return nil, err
		}
		out = append(out, Fig42Region{L: L, Segments: len(region.SegmentIDs), RoadKm: region.RoadKm, SpanKm: spanKm(region)})
	}
	return out, nil
}

// PrintFig42 renders the region summaries.
func PrintFig42(out io.Writer, rows []Fig42Region) {
	fmt.Fprintln(out, "Fig 4.2 — example Prob-reachable regions (Prob=20%)")
	for _, r := range rows {
		fmt.Fprintf(out, "   L=%2.0f min: %4d segments, %7.1f km road, %5.1f km span\n",
			r.L.Minutes(), r.Segments, r.RoadKm, r.SpanKm)
	}
}

// Fig43Row is one point of Fig 4.3: effect of probability Prob.
type Fig43Row struct {
	Prob     float64
	ES       time.Duration
	SQMB10   time.Duration // L = 10 min
	SQMB15   time.Duration // L = 15 min
	RoadKm10 float64
	RoadKm15 float64
	Eval10   int
	Eval15   int
}

// Fig43 sweeps Prob with T=11:00 fixed.
func Fig43(w *World) ([]Fig43Row, error) {
	loc, err := w.QueryLocation()
	if err != nil {
		return nil, err
	}
	sys, err := w.System(300)
	if err != nil {
		return nil, err
	}
	if err := sys.WarmCtx(context.Background(), 11*time.Hour, 15*time.Minute); err != nil {
		return nil, err
	}
	var rows []Fig43Row
	for _, p := range probSweep {
		q10 := streach.ReachRequest(loc, 11*time.Hour, 10*time.Minute, p)
		q15 := q10
		q15.Duration = 15 * time.Minute
		es, err := timedReach(sys, q10, exhaustive)
		if err != nil {
			return nil, err
		}
		r10, err := timedReach(sys, q10)
		if err != nil {
			return nil, err
		}
		r15, err := timedReach(sys, q15)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig43Row{
			Prob: p, ES: es.Metrics.Elapsed,
			SQMB10: r10.Metrics.Elapsed, SQMB15: r15.Metrics.Elapsed,
			RoadKm10: r10.RoadKm, RoadKm15: r15.RoadKm,
			Eval10: r10.Metrics.Evaluated, Eval15: r15.Metrics.Evaluated,
		})
	}
	return rows, nil
}

// PrintFig43 renders the Prob sweep.
func PrintFig43(out io.Writer, rows []Fig43Row) {
	fmt.Fprintln(out, "Fig 4.3 — effect of probability Prob (T=11:00)")
	fmt.Fprintln(out, "   Prob      ES   SQMB+TBS(L=10)  SQMB+TBS(L=15)   km(10)   km(15)")
	for _, r := range rows {
		fmt.Fprintf(out, "   %3.0f%%  %8s  %14s  %14s  %7.1f  %7.1f\n",
			r.Prob*100, fmtDur(r.ES), fmtDur(r.SQMB10), fmtDur(r.SQMB15), r.RoadKm10, r.RoadKm15)
	}
}

// Fig44 reuses the Prob sweep to emit region summaries like the paper's
// four map panels (Prob = 20/60/80/100%).
func Fig44(w *World) ([]Fig42Region, error) {
	loc, err := w.QueryLocation()
	if err != nil {
		return nil, err
	}
	sys, err := w.System(300)
	if err != nil {
		return nil, err
	}
	if err := sys.WarmCtx(context.Background(), 11*time.Hour, 10*time.Minute); err != nil {
		return nil, err
	}
	var out []Fig42Region
	for _, p := range []float64{0.2, 0.6, 0.8, 1.0} {
		region, err := sys.Do(context.Background(), streach.ReachRequest(loc, 11*time.Hour, 10*time.Minute, p))
		if err != nil {
			return nil, err
		}
		out = append(out, Fig42Region{
			L:        time.Duration(p * float64(time.Hour)), // reuse field: encodes Prob for printing
			Segments: len(region.SegmentIDs),
			RoadKm:   region.RoadKm,
			SpanKm:   spanKm(region),
		})
	}
	return out, nil
}

// PrintFig44 renders the Prob region summaries.
func PrintFig44(out io.Writer, rows []Fig42Region) {
	fmt.Fprintln(out, "Fig 4.4 — regions at Prob = 20/60/80/100% (L=10 min)")
	probs := []float64{20, 60, 80, 100}
	for i, r := range rows {
		fmt.Fprintf(out, "   Prob=%3.0f%%: %4d segments, %7.1f km road, %5.1f km span\n",
			probs[i], r.Segments, r.RoadKm, r.SpanKm)
	}
}

// Fig45Row is one point of Fig 4.5: effect of start time T.
type Fig45Row struct {
	Hour    int
	SQMB5m  time.Duration // L = 5 min
	SQMB10m time.Duration // L = 10 min
	Km5     float64
	Km10    float64
}

// Fig45 sweeps the start time over the day (L = 5 and 10 min, Prob=80%,
// matching the paper's visualisation settings).
func Fig45(w *World) ([]Fig45Row, error) {
	loc, err := w.QueryLocation()
	if err != nil {
		return nil, err
	}
	sys, err := w.System(300)
	if err != nil {
		return nil, err
	}
	var rows []Fig45Row
	for h := 0; h < 24; h++ {
		if err := sys.WarmCtx(context.Background(), time.Duration(h)*time.Hour, 10*time.Minute); err != nil {
			return nil, err
		}
		q5 := streach.ReachRequest(loc, time.Duration(h)*time.Hour, 5*time.Minute, 0.2)
		q10 := q5
		q10.Duration = 10 * time.Minute
		r5, err := timedReach(sys, q5)
		if err != nil {
			return nil, err
		}
		r10, err := timedReach(sys, q10)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig45Row{
			Hour: h, SQMB5m: r5.Metrics.Elapsed, SQMB10m: r10.Metrics.Elapsed,
			Km5: r5.RoadKm, Km10: r10.RoadKm,
		})
	}
	return rows, nil
}

// PrintFig45 renders the start-time sweep.
func PrintFig45(out io.Writer, rows []Fig45Row) {
	fmt.Fprintln(out, "Fig 4.5 — effect of start time T (Prob=20%)")
	fmt.Fprintln(out, "   T      SQMB(L=5)   SQMB(L=10)     km(5)    km(10)")
	for _, r := range rows {
		fmt.Fprintf(out, "   %02d:00  %9s  %11s  %8.1f  %8.1f\n",
			r.Hour, fmtDur(r.SQMB5m), fmtDur(r.SQMB10m), r.Km5, r.Km10)
	}
}

// Fig46 emits region summaries at T = 1am/6am/12pm/6pm (L=5 min,
// Prob=80%, the paper's Fig 4.6 settings).
func Fig46(w *World) ([]Fig42Region, error) {
	loc, err := w.QueryLocation()
	if err != nil {
		return nil, err
	}
	sys, err := w.System(300)
	if err != nil {
		return nil, err
	}
	var out []Fig42Region
	for _, h := range []int{1, 6, 12, 18} {
		if err := sys.WarmCtx(context.Background(), time.Duration(h)*time.Hour, 5*time.Minute); err != nil {
			return nil, err
		}
		region, err := sys.Do(context.Background(),
			streach.ReachRequest(loc, time.Duration(h)*time.Hour, 5*time.Minute, 0.8))
		if err != nil {
			return nil, err
		}
		out = append(out, Fig42Region{
			L:        time.Duration(h) * time.Hour, // encodes T for printing
			Segments: len(region.SegmentIDs),
			RoadKm:   region.RoadKm,
			SpanKm:   spanKm(region),
		})
	}
	return out, nil
}

// PrintFig46 renders the per-start-time regions.
func PrintFig46(out io.Writer, rows []Fig42Region) {
	fmt.Fprintln(out, "Fig 4.6 — regions at T = 01/06/12/18 h (L=5 min, Prob=80%)")
	for _, r := range rows {
		fmt.Fprintf(out, "   T=%02.0f:00: %4d segments, %7.1f km road, %5.1f km span\n",
			r.L.Hours(), r.Segments, r.RoadKm, r.SpanKm)
	}
}

// Fig47Row is one point of Fig 4.7: effect of the index granularity Δt.
type Fig47Row struct {
	DtMinutes int
	SQMB5m    time.Duration // L = 5 min
	SQMB10m   time.Duration // L = 10 min
	ES        time.Duration // reference
}

// Fig47 sweeps Δt in {1, 5, 10, 20} minutes, rebuilding the indexes.
func Fig47(w *World) ([]Fig47Row, error) {
	loc, err := w.QueryLocation()
	if err != nil {
		return nil, err
	}
	var rows []Fig47Row
	for _, dtMin := range []int{1, 5, 10, 20} {
		sys, err := w.System(dtMin * 60)
		if err != nil {
			return nil, err
		}
		if err := sys.WarmCtx(context.Background(), 11*time.Hour, 10*time.Minute); err != nil {
			return nil, err
		}
		q5 := streach.ReachRequest(loc, 11*time.Hour, 5*time.Minute, 0.2)
		q10 := q5
		q10.Duration = 10 * time.Minute
		r5, err := timedReach(sys, q5)
		if err != nil {
			return nil, err
		}
		r10, err := timedReach(sys, q10)
		if err != nil {
			return nil, err
		}
		es, err := timedReach(sys, q10, exhaustive)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig47Row{DtMinutes: dtMin, SQMB5m: r5.Metrics.Elapsed, SQMB10m: r10.Metrics.Elapsed, ES: es.Metrics.Elapsed})
	}
	return rows, nil
}

// PrintFig47 renders the Δt sweep.
func PrintFig47(out io.Writer, rows []Fig47Row) {
	fmt.Fprintln(out, "Fig 4.7 — processing time over Δt (T=11:00, Prob=20%)")
	fmt.Fprintln(out, "   Δt(min)  SQMB(L=5)  SQMB(L=10)        ES")
	for _, r := range rows {
		fmt.Fprintf(out, "   %7d  %9s  %10s  %8s\n", r.DtMinutes, fmtDur(r.SQMB5m), fmtDur(r.SQMB10m), fmtDur(r.ES))
	}
}

// Fig48aRow compares m-query vs sequential s-queries over duration
// (3 locations, Prob=20%).
type Fig48aRow struct {
	L     time.Duration
	MQMB  time.Duration
	SeqSQ time.Duration
}

// Fig48a sweeps duration for a 3-location m-query.
func Fig48a(w *World) ([]Fig48aRow, error) {
	locs, err := w.MultiQueryLocations(3, 11*time.Hour)
	if err != nil {
		return nil, err
	}
	sys, err := w.System(300)
	if err != nil {
		return nil, err
	}
	if err := sys.WarmCtx(context.Background(), 11*time.Hour, 35*time.Minute); err != nil {
		return nil, err
	}
	var rows []Fig48aRow
	for _, L := range durationSweep {
		q := streach.MultiRequest(locs, 11*time.Hour, L, 0.2)
		m, err := timedReach(sys, q)
		if err != nil {
			return nil, err
		}
		s, err := timedReach(sys, q, sequential)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig48aRow{L: L, MQMB: m.Metrics.Elapsed, SeqSQ: s.Metrics.Elapsed})
	}
	return rows, nil
}

// PrintFig48a renders the duration comparison.
func PrintFig48a(out io.Writer, rows []Fig48aRow) {
	fmt.Fprintln(out, "Fig 4.8a — m-query vs sequential s-queries over duration (3 locations, Prob=20%)")
	fmt.Fprintln(out, "   L(min)    MQMB+TBS   nxSQMB+TBS")
	for _, r := range rows {
		fmt.Fprintf(out, "   %6.0f  %10s  %11s\n", r.L.Minutes(), fmtDur(r.MQMB), fmtDur(r.SeqSQ))
	}
}

// Fig48bRow compares m-query vs sequential s-queries over the number of
// locations (L=20 min, T=10:00, Prob=20%).
type Fig48bRow struct {
	Locations int
	MQMB      time.Duration
	SeqSQ     time.Duration
}

// Fig48b sweeps the location count 1..n.
func Fig48b(w *World, maxLocs int) ([]Fig48bRow, error) {
	locs, err := w.MultiQueryLocations(maxLocs, 10*time.Hour)
	if err != nil {
		return nil, err
	}
	sys, err := w.System(300)
	if err != nil {
		return nil, err
	}
	if err := sys.WarmCtx(context.Background(), 10*time.Hour, 20*time.Minute); err != nil {
		return nil, err
	}
	var rows []Fig48bRow
	for n := 1; n <= maxLocs; n++ {
		q := streach.MultiRequest(locs[:n], 10*time.Hour, 20*time.Minute, 0.2)
		m, err := timedReach(sys, q)
		if err != nil {
			return nil, err
		}
		s, err := timedReach(sys, q, sequential)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig48bRow{Locations: n, MQMB: m.Metrics.Elapsed, SeqSQ: s.Metrics.Elapsed})
	}
	return rows, nil
}

// PrintFig48b renders the location-count comparison.
func PrintFig48b(out io.Writer, rows []Fig48bRow) {
	fmt.Fprintln(out, "Fig 4.8b — m-query vs sequential s-queries over #locations (L=20 min, T=10:00)")
	fmt.Fprintln(out, "   #locs    MQMB+TBS   nxSQMB+TBS")
	for _, r := range rows {
		fmt.Fprintf(out, "   %5d  %10s  %11s\n", r.Locations, fmtDur(r.MQMB), fmtDur(r.SeqSQ))
	}
}

// Fig49Result verifies the union property of Fig 4.9: the 3-location
// m-query region covers the individual s-query regions.
type Fig49Result struct {
	MQuerySegments int
	SQuerySegments [3]int
	UnionSegments  int
	CoveredByM     int // union segments present in the m-query region
}

// Fig49 runs the 3-location experiment.
func Fig49(w *World) (*Fig49Result, error) {
	locs, err := w.MultiQueryLocations(3, 11*time.Hour)
	if err != nil {
		return nil, err
	}
	sys, err := w.System(300)
	if err != nil {
		return nil, err
	}
	m, err := sys.Do(context.Background(), streach.MultiRequest(locs, 11*time.Hour, 10*time.Minute, 0.2))
	if err != nil {
		return nil, err
	}
	out := &Fig49Result{MQuerySegments: len(m.SegmentIDs)}
	union := map[int32]bool{}
	for i, loc := range locs {
		r, err := sys.Do(context.Background(), streach.ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2))
		if err != nil {
			return nil, err
		}
		out.SQuerySegments[i] = len(r.SegmentIDs)
		for _, id := range r.SegmentIDs {
			union[id] = true
		}
	}
	out.UnionSegments = len(union)
	for id := range union {
		if m.Contains(id) {
			out.CoveredByM++
		}
	}
	return out, nil
}

// PrintFig49 renders the union check.
func PrintFig49(out io.Writer, r *Fig49Result) {
	fmt.Fprintln(out, "Fig 4.9 — m-query region vs union of s-query regions (3 locations)")
	fmt.Fprintf(out, "   s-query regions: %d / %d / %d segments; union %d\n",
		r.SQuerySegments[0], r.SQuerySegments[1], r.SQuerySegments[2], r.UnionSegments)
	fmt.Fprintf(out, "   m-query region: %d segments, covering %d/%d of the union (%.0f%%)\n",
		r.MQuerySegments, r.CoveredByM, r.UnionSegments,
		100*float64(r.CoveredByM)/float64(max(1, r.UnionSegments)))
}

// Table41 prints the dataset description.
func Table41(out io.Writer, w *World) error {
	sys, err := w.System(300)
	if err != nil {
		return err
	}
	st := sys.Stats()
	fmt.Fprintln(out, "Table 4.1 — dataset description (synthetic stand-in, see DESIGN.md)")
	fmt.Fprintf(out, "   City size:          %.0f square km (paper: 400 square miles)\n",
		float64(w.Cfg.CityRows)*w.Cfg.SpacingMeters*float64(w.Cfg.CityCols)*w.Cfg.SpacingMeters/1e6)
	fmt.Fprintf(out, "   Road segments:      %d (re-segmented at %.0f m)\n", st.Segments, w.Cfg.ResegmentMeters)
	fmt.Fprintf(out, "   Road length:        %.0f km\n", st.RoadKm)
	fmt.Fprintf(out, "   Duration:           %d days (paper: 30 days, Nov 2014)\n", st.Days)
	fmt.Fprintf(out, "   Number of taxis:    %d (paper: 21,385)\n", st.Taxis)
	fmt.Fprintf(out, "   Trajectories:       %d taxi-days\n", st.Trajectories)
	fmt.Fprintf(out, "   Segment visits:     %d (paper: 407,040,083 GPS records)\n", st.Visits)
	return nil
}

// Table42 prints the evaluation configuration grid.
func Table42(out io.Writer) {
	fmt.Fprintln(out, "Table 4.2 — evaluation configuration")
	fmt.Fprintln(out, "   duration L:        5..35 min (step 5)")
	fmt.Fprintln(out, "   probability Prob:  20%..100% (step 20)")
	fmt.Fprintln(out, "   start time T:      00:00..23:00 hourly")
	fmt.Fprintln(out, "   interval Δt:       1, 5, 10, 20 min")
	fmt.Fprintln(out, "   s-query:           ES, SQMB+TBS")
	fmt.Fprintln(out, "   m-query:           SQMB+TBS xN, MQMB+TBS")
}

// The figures' baselines: exhaustive search for an s-query, one
// SQMB+TBS per location for an m-query.
var (
	exhaustive = streach.WithAlgorithm(streach.AlgoExhaustive)
	sequential = streach.WithAlgorithm(streach.AlgoSequential)
)

// timedReach runs the query three times and returns the result with the
// minimum elapsed time, damping scheduler noise in the figures. Every
// run is an execution of its own: a plan-cache hit would time the
// cache's threshold scan, not the algorithm (the Prob sweeps vary only
// the threshold, which is not part of the plan key).
func timedReach(sys *streach.System, req streach.Request, opts ...streach.Option) (*streach.Region, error) {
	opts = append([]streach.Option{streach.WithBatchSharing(false)}, opts...)
	var best *streach.Region
	for i := 0; i < 3; i++ {
		r, err := sys.Do(context.Background(), req, opts...)
		if err != nil {
			return nil, err
		}
		if best == nil || r.Metrics.Elapsed < best.Metrics.Elapsed {
			best = r
		}
	}
	return best, nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func spanKm(r *streach.Region) float64 {
	minLat, minLng, maxLat, maxLng, ok := r.Bounds()
	if !ok {
		return 0
	}
	// Diagonal of the bounding box, in km.
	dLat := (maxLat - minLat) * 111.195
	dLng := (maxLng - minLng) * 111.195 * 0.92 // cos(22.5°)
	return math.Sqrt(dLat*dLat + dLng*dLng)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
