package main

import "fmt"

// minRegionSegments is the smallest median region a workload may return
// before it counts as trivial: below it the benchmark would mostly time
// snapping a point to a road, not reachability.
const minRegionSegments = 20

// guards checks, on the traced run's metrics, that a workload still
// stresses the layer it was chosen for. A workload that drifts - because
// the world, the samplers or the program changed - would keep producing
// steady numbers that no longer mean what its name says; the run fails
// instead.
func guards(workload string, m map[string]float64) []string {
	var out []string
	need := func(ok bool, format string, a ...any) {
		if !ok {
			out = append(out, workload+": "+fmt.Sprintf(format, a...))
		}
	}
	need(m["core.region_segments"] >= minRegionSegments,
		"median region has %.0f segments, want at least %d", m["core.region_segments"], minRegionSegments)
	need(m["trace.coverage"] >= 0.8 && m["trace.coverage"] <= 1.2,
		"spans cover %.2f of the root span, want 0.8 to 1.2", m["trace.coverage"])
	switch workload {
	case "wide-distinct":
		need(m["core.verify_share"] >= 0.6, "verification is %.2f of the pipeline, want at least 0.6", m["core.verify_share"])
		need(m["streach.plan_hit_ratio"] == 0, "plan cache hit ratio %.3f on distinct shapes, want 0", m["streach.plan_hit_ratio"])
	case "cold-bound":
		need(m["core.bound_share"] >= 0.5, "bounding is %.2f of the pipeline, want at least 0.5", m["core.bound_share"])
		need(m["streach.plan_hit_ratio"] == 0, "plan cache hit ratio %.3f on distinct shapes, want 0", m["streach.plan_hit_ratio"])
		need(m["conindex.materialised_per_query"] > 0, "no Con-Index row was materialised at query time")
	case "http-hot":
		need(m["core.verify_share"] <= 0.25, "verification is %.2f of the handler, want at most 0.25", m["core.verify_share"])
		need(m["streach.plan_hit_ratio"] >= 0.9, "plan cache hit ratio %.3f on hot shapes, want at least 0.9", m["streach.plan_hit_ratio"])
	}
	return out
}
