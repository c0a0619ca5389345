// Benchmark harness: one benchmark per table and figure of the thesis's
// evaluation chapter, plus ablations of the design choices called out in
// DESIGN.md §5. Each figure benchmark regenerates the paper's rows and
// prints them to the benchmark log; no paper-vs-measured record is kept.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Set STREACH_BENCH_FULL=1 to use the full 150-taxi / 30-day world.
package streach_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"streach"
	"streach/internal/experiments"
)

var (
	benchOnce  sync.Once
	benchWorld *experiments.World
	benchErr   error
)

func world(b *testing.B) *experiments.World {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		if os.Getenv("STREACH_BENCH_FULL") == "" {
			// Laptop-friendly default; the full config is opt-in.
			cfg.Taxis = 250
			cfg.Days = 20
		}
		t0 := time.Now()
		benchWorld, benchErr = experiments.BuildWorld(cfg)
		if benchErr == nil {
			fmt.Printf("# bench world: %dx%d city, %d taxis x %d days (built in %.1fs)\n",
				cfg.CityRows, cfg.CityCols, cfg.Taxis, cfg.Days, time.Since(t0).Seconds())
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWorld
}

// report prints a figure's rows once per benchmark run.
func report(b *testing.B, i int, print func()) {
	if i == 0 {
		print()
	}
}

func BenchmarkTable41Dataset(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		if err := experiments.Table41(os.Stdout, w); err != nil {
			b.Fatal(err)
		}
		experiments.Table42(os.Stdout)
	}
}

func BenchmarkFig41DurationTime(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig41(w)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, func() { experiments.PrintFig41(os.Stdout, rows) })
	}
}

// BenchmarkFig41DurationLength shares Fig41's sweep; the road-length
// series is panel (b) of the same figure and is included in the printed
// rows. This alias keeps DESIGN.md's per-experiment index one-to-one.
func BenchmarkFig41DurationLength(b *testing.B) {
	BenchmarkFig41DurationTime(b)
}

func BenchmarkFig42Regions(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig42(w)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, func() { experiments.PrintFig42(os.Stdout, rows) })
	}
}

func BenchmarkFig43ProbTime(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig43(w)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, func() { experiments.PrintFig43(os.Stdout, rows) })
	}
}

// BenchmarkFig43ProbLength is panel (b) of Fig 4.3 (see the km columns).
func BenchmarkFig43ProbLength(b *testing.B) {
	BenchmarkFig43ProbTime(b)
}

func BenchmarkFig44ProbRegions(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig44(w)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, func() { experiments.PrintFig44(os.Stdout, rows) })
	}
}

func BenchmarkFig45StartTime(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig45(w)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, func() { experiments.PrintFig45(os.Stdout, rows) })
	}
}

// BenchmarkFig45StartLength is panel (b) of Fig 4.5 (the km columns).
func BenchmarkFig45StartLength(b *testing.B) {
	BenchmarkFig45StartTime(b)
}

func BenchmarkFig46StartRegions(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig46(w)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, func() { experiments.PrintFig46(os.Stdout, rows) })
	}
}

func BenchmarkFig47Interval(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig47(w)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, func() { experiments.PrintFig47(os.Stdout, rows) })
	}
}

func BenchmarkFig48aMQueryDuration(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig48a(w)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, func() { experiments.PrintFig48a(os.Stdout, rows) })
	}
}

func BenchmarkFig48bMQueryLocations(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig48b(w, 10)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, func() { experiments.PrintFig48b(os.Stdout, rows) })
	}
}

func BenchmarkFig49Union(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig49(w)
		if err != nil {
			b.Fatal(err)
		}
		report(b, i, func() { experiments.PrintFig49(os.Stdout, res) })
	}
}

// --- Ablations (DESIGN.md §5) ---

// warmWindow precomputes the Con-Index tables a query over the window touches.
func warmWindow(b *testing.B, sys *streach.System, start, dur time.Duration) {
	b.Helper()
	if err := sys.WarmCtx(context.Background(), start, dur); err != nil {
		b.Fatal(err)
	}
}

// benchQuery is the standard ablation query against the shared world.
func benchQuery(b *testing.B, w *experiments.World) (*streach.System, streach.Request) {
	b.Helper()
	sys, err := w.System(300)
	if err != nil {
		b.Fatal(err)
	}
	warmWindow(b, sys, 11*time.Hour, 10*time.Minute)
	loc, err := w.QueryLocation()
	if err != nil {
		b.Fatal(err)
	}
	return sys, streach.ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2)
}

// unshared keeps every ablation Do an execution of its own: a plan-cache
// hit would time the cache, not the algorithm.
var unshared = streach.WithBatchSharing(false)

// BenchmarkAblationNoConIndex compares SQMB+TBS (Con-Index pruning)
// against the exhaustive expansion that verifies the full worst-case
// radius.
func BenchmarkAblationNoConIndex(b *testing.B) {
	w := world(b)
	sys, q := benchQuery(b, w)
	b.Run("with-conindex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Do(context.Background(), q, unshared); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-conindex-ES", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Do(context.Background(), q, unshared, streach.WithAlgorithm(streach.AlgoExhaustive)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBufferPool measures per-query physical page reads at
// different buffer pool capacities.
func BenchmarkAblationBufferPool(b *testing.B) {
	w := world(b)
	loc, err := w.QueryLocation()
	if err != nil {
		b.Fatal(err)
	}
	q := streach.ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2)
	for _, pages := range []int{16, 128, 2048} {
		b.Run(fmt.Sprintf("pool-%d", pages), func(b *testing.B) {
			sys, err := streach.NewSystemFromData(w.Net, w.DS, streach.IndexConfig{SlotSeconds: 300, PoolPages: pages})
			if err != nil {
				b.Fatal(err)
			}
			warmWindow(b, sys, 11*time.Hour, 10*time.Minute)
			var reads int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := sys.Do(context.Background(), q, unshared)
				if err != nil {
					b.Fatal(err)
				}
				reads += r.Metrics.PageReads
			}
			b.ReportMetric(float64(reads)/float64(b.N), "pagereads/op")
		})
	}
}

// BenchmarkAblationVisited compares the EarlyStop trace back with and
// without the visited-set deduplication (thesis §3.3.1's r* example).
func BenchmarkAblationVisited(b *testing.B) {
	w := world(b)
	sys, q := benchQuery(b, w)
	for _, tc := range []struct {
		name string
		opts []streach.Option
	}{
		{"visited-set", []streach.Option{unshared, streach.WithEarlyStop(true)}},
		{"no-visited-set", []streach.Option{unshared, streach.WithEarlyStop(true), streach.WithNoVisitedSet(true)}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var evaluated int64
			for i := 0; i < b.N; i++ {
				r, err := sys.Do(context.Background(), q, tc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				evaluated += int64(r.Metrics.Evaluated)
			}
			b.ReportMetric(float64(evaluated)/float64(b.N), "verified/op")
		})
	}
}

// BenchmarkAblationMQMBFilter compares MQMB with and without the overlap
// elimination of Algorithm 3 lines 7-10.
func BenchmarkAblationMQMBFilter(b *testing.B) {
	w := world(b)
	sys, _ := benchQuery(b, w)
	locs, err := w.MultiQueryLocations(3, 11*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	q := streach.MultiRequest(locs, 11*time.Hour, 10*time.Minute, 0.2)
	for _, tc := range []struct {
		name string
		opts []streach.Option
	}{
		{"overlap-filter", []streach.Option{unshared}},
		{"no-overlap-filter", []streach.Option{unshared, streach.WithNoOverlapFilter(true)}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var maxRegion int64
			for i := 0; i < b.N; i++ {
				r, err := sys.Do(context.Background(), q, tc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				maxRegion += int64(r.Metrics.MaxRegion)
			}
			b.ReportMetric(float64(maxRegion)/float64(b.N), "maxregion/op")
		})
	}
}
