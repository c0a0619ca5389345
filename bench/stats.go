package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending; 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the nearest-rank median of vals (0 when empty); vals is
// not modified.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailLadder is the set of percentiles tailPercentile chooses from, in
// per mille so that the rule is decided in whole numbers.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile applies the reporting rule of the choosing-metrics
// guide: the highest percentile of the ladder that still has at least
// ten samples beyond it. With fewer than twenty samples even the median
// has no such tail, and the median is reported.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durs summarises a set of durations in a caller-chosen unit.
type durs []time.Duration

func (d durs) sorted(unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = unit(v)
	}
	sort.Float64s(out)
	return out
}

// p returns the p-th percentile in unit, or 0 for an empty set (a layer
// the workload never calls reports 0, not an error).
func (d durs) p(pct float64, unit func(time.Duration) float64) float64 {
	return percentile(d.sorted(unit), pct)
}

// sum adds the durations.
func (d durs) sum() time.Duration {
	var t time.Duration
	for _, v := range d {
		t += v
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
