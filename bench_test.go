// Benchmark harness: one benchmark per table and figure of the thesis's
// evaluation chapter, plus ablations of the design choices called out in
// DESIGN.md §5. Each figure benchmark regenerates the paper's rows and
// prints them (captured in bench_output.txt); see EXPERIMENTS.md for the
// paper-vs-measured comparison.
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
	"path/filepath"
	"sync"
	"testing"
	"time"

	"streach"
	"streach/internal/core"
	"streach/internal/experiments"
	"streach/internal/geo"
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

// --- Verification fast path ---

// BenchmarkProbe measures the verification inner loop: an exhaustive
// query is dominated by per-segment probes of the on-disk time lists, so
// ns/op here tracks the streaming matcher directly (probes never touch
// the decoded-list cache). verified/op reports how many segments each
// query probes.
func BenchmarkProbe(b *testing.B) {
	w := world(b)
	sys, q := benchQuery(b, w)
	// Fill the buffer pool the way a warm server's would be.
	if _, err := sys.ReachES(q); err != nil {
		b.Fatal(err)
	}
	var evaluated int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sys.ReachES(q)
		if err != nil {
			b.Fatal(err)
		}
		evaluated += int64(r.Metrics.Evaluated)
	}
	b.ReportMetric(float64(evaluated)/float64(b.N), "verified/op")
}

// BenchmarkReachParallel measures SQMB+TBS throughput under concurrent
// clients: the engine is safe for concurrent Reach calls, and scaling to
// 8 clients should be near-linear now that the Con-Index expansion
// scratch is per-worker and every verifier streams off the shared pool.
func BenchmarkReachParallel(b *testing.B) {
	w := world(b)
	sys, q := benchQuery(b, w)
	if _, err := sys.Reach(q); err != nil { // warm all caches once
		b.Fatal(err)
	}
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients-%d", clients), func(b *testing.B) {
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			per := b.N / clients
			extra := b.N % clients
			for c := 0; c < clients; c++ {
				n := per
				if c < extra {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := sys.Reach(q); err != nil {
							errs <- err
							return
						}
					}
				}(n)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		})
	}
}

// --- Bounding fast path ---

// BenchmarkBounding measures the bounding phase alone on a warm
// Con-Index: a high-L sweep whose cost is the per-round union of
// Near/Far adjacency rows (word-ORs on the bitset rows, element
// inserts on the sparse ones). This is the number the vectorized
// region representation is accountable for.
func BenchmarkBounding(b *testing.B) {
	w := world(b)
	sys, err := w.System(300)
	if err != nil {
		b.Fatal(err)
	}
	const dur = 30 * time.Minute
	sys.Warm(11*time.Hour, dur)
	loc, err := w.QueryLocation()
	if err != nil {
		b.Fatal(err)
	}
	q := core.Query{
		Location: geo.Point{Lat: loc.Lat, Lng: loc.Lng},
		Start:    11 * time.Hour,
		Duration: dur,
		Prob:     0.2,
	}
	eng := sys.Engine()
	var maxRegion int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		segs, err := eng.MaxBoundingRegion(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.MinBoundingRegion(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		maxRegion += int64(len(segs))
	}
	b.ReportMetric(float64(maxRegion)/float64(b.N), "maxregion/op")
}

// BenchmarkColdStart measures the first query on a freshly reopened
// system. With the persisted adjacency blob (conindex.adj) the bounding
// phase runs entirely from restored rows; stripping the blob forces the
// pre-PR behaviour where every cold Far/Near lookup runs a travel-time
// Dijkstra at query time. warm-reference is the steady-state number the
// acceptance criterion compares against.
func BenchmarkColdStart(b *testing.B) {
	w := world(b)
	sys, q := benchQuery(b, w)
	if _, err := sys.Reach(q); err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "saved")
	if err := sys.Save(dir); err != nil {
		b.Fatal(err)
	}
	stripped := filepath.Join(b.TempDir(), "stripped")
	if err := sys.Save(stripped); err != nil {
		b.Fatal(err)
	}
	if err := os.Remove(filepath.Join(stripped, "conindex.adj")); err != nil {
		b.Fatal(err)
	}

	b.Run("warm-reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Reach(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	coldReach := func(b *testing.B, dir string) {
		var materialised int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cold, err := streach.OpenSystem(dir, streach.DefaultIndexConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			r, err := cold.Reach(q)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			materialised += r.Metrics.ConMaterialised
			cold.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(materialised)/float64(b.N), "dijkstras/op")
	}
	b.Run("reopen-with-adjacency", func(b *testing.B) { coldReach(b, dir) })
	b.Run("reopen-cold-tables", func(b *testing.B) { coldReach(b, stripped) })
}

// --- Batch-aware shared execution ---

// BenchmarkDoBatch measures the group-and-plan batch scheduler against
// independent execution on two workload shapes:
//
//   - duplicate-heavy: 64 requests over 8 distinct (start, slot, window)
//     groups with varying probabilities — the shape sharing is built for;
//   - all-distinct: 64 requests with 64 distinct start locations — the
//     worst case for the grouping overhead, which must stay negligible.
//
// The shared/independent pairs are the acceptance numbers: ≥2x throughput
// (and visibly fewer allocations) on duplicate-heavy, <5% regression on
// all-distinct.
func BenchmarkDoBatch(b *testing.B) {
	w := world(b)
	sys, err := w.System(300)
	if err != nil {
		b.Fatal(err)
	}
	sys.Warm(11*time.Hour, 20*time.Minute)

	locs, err := w.MultiQueryLocations(16, 11*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	var dupHeavy, allDistinct []streach.Request
	for i := 0; i < 64; i++ {
		// 8 groups x 8 members; probabilities differ inside each group, so
		// sharing must resolve them from the per-candidate probability map.
		dupHeavy = append(dupHeavy,
			streach.ReachRequest(locs[i%8], 11*time.Hour, 10*time.Minute, 0.1+0.05*float64(i/8)))
		// 16 locations x 4 windows: 64 distinct group keys, nothing shares.
		allDistinct = append(allDistinct,
			streach.ReachRequest(locs[i%16], 11*time.Hour, time.Duration(5+5*(i/16))*time.Minute, 0.2))
	}

	for _, mix := range []struct {
		name string
		reqs []streach.Request
	}{{"duplicate-heavy", dupHeavy}, {"all-distinct", allDistinct}} {
		for _, mode := range []struct {
			name string
			opts []streach.Option
		}{
			{"shared", nil},
			{"independent", []streach.Option{streach.WithBatchSharing(false)}},
		} {
			b.Run(mix.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j, r := range sys.DoBatch(context.Background(), mix.reqs, mode.opts...) {
						if r.Err != nil {
							b.Fatalf("request %d: %v", j, r.Err)
						}
					}
				}
				b.ReportMetric(float64(len(mix.reqs)), "queries/op")
			})
		}
	}
}

// BenchmarkShardedReach measures the scatter-gather layer against
// single-engine execution on the same world: the acceptance bar is
// overhead ≤ 10% on one CPU (partition routing + partial-region merge
// are the only extra work) and a speedup once GOMAXPROCS > 1 (shards
// verify concurrently). WithBatchSharing(false) keeps the plan cache out
// of the measurement — every iteration runs the full pipeline.
func BenchmarkShardedReach(b *testing.B) {
	w := world(b)
	sys, err := w.System(300)
	if err != nil {
		b.Fatal(err)
	}
	sys.Warm(11*time.Hour, 20*time.Minute)
	idx := streach.IndexConfig{SlotSeconds: 300, PoolPages: 2048, Shards: 4}
	sharded, err := streach.NewSystemFromData(w.Net, w.DS, idx)
	if err != nil {
		b.Fatal(err)
	}
	sharded.Warm(11*time.Hour, 20*time.Minute)
	loc, err := w.QueryLocation()
	if err != nil {
		b.Fatal(err)
	}
	req := streach.ReachRequest(loc, 11*time.Hour, 10*time.Minute, 0.2)

	for _, sy := range []struct {
		name string
		s    *streach.System
	}{{"unsharded", sys}, {"sharded-4", sharded}} {
		b.Run(sy.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				region, err := sy.s.Do(context.Background(), req, streach.WithBatchSharing(false))
				if err != nil {
					b.Fatal(err)
				}
				if len(region.SegmentIDs) == 0 {
					b.Fatal("empty region")
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md §5) ---

// benchQuery is the standard ablation query against the shared world.
func benchQuery(b *testing.B, w *experiments.World) (*streach.System, streach.Query) {
	b.Helper()
	sys, err := w.System(300)
	if err != nil {
		b.Fatal(err)
	}
	sys.Warm(11*time.Hour, 10*time.Minute)
	loc, err := w.QueryLocation()
	if err != nil {
		b.Fatal(err)
	}
	return sys, streach.Query{Lat: loc.Lat, Lng: loc.Lng, Start: 11 * time.Hour, Duration: 10 * time.Minute, Prob: 0.2}
}

// BenchmarkAblationNoConIndex compares SQMB+TBS (Con-Index pruning)
// against the exhaustive expansion that verifies the full worst-case
// radius.
func BenchmarkAblationNoConIndex(b *testing.B) {
	w := world(b)
	sys, q := benchQuery(b, w)
	b.Run("with-conindex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Reach(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-conindex-ES", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.ReachES(q); err != nil {
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
	q := streach.Query{Lat: loc.Lat, Lng: loc.Lng, Start: 11 * time.Hour, Duration: 10 * time.Minute, Prob: 0.2}
	for _, pages := range []int{16, 128, 2048} {
		b.Run(fmt.Sprintf("pool-%d", pages), func(b *testing.B) {
			sys, err := streach.NewSystemFromData(w.Net, w.DS, streach.IndexConfig{SlotSeconds: 300, PoolPages: pages})
			if err != nil {
				b.Fatal(err)
			}
			sys.Warm(11*time.Hour, 10*time.Minute)
			var reads int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := sys.Reach(q)
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
	loc, err := w.QueryLocation()
	if err != nil {
		b.Fatal(err)
	}
	q := streach.Query{Lat: loc.Lat, Lng: loc.Lng, Start: 11 * time.Hour, Duration: 10 * time.Minute, Prob: 0.2}
	for _, tc := range []struct {
		name string
		idx  streach.IndexConfig
	}{
		{"visited-set", streach.IndexConfig{SlotSeconds: 300, EarlyStop: true}},
		{"no-visited-set", streach.IndexConfig{SlotSeconds: 300, EarlyStop: true, NoVisitedSet: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sys, err := streach.NewSystemFromData(w.Net, w.DS, tc.idx)
			if err != nil {
				b.Fatal(err)
			}
			sys.Warm(11*time.Hour, 10*time.Minute)
			var evaluated int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := sys.Reach(q)
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
	locs, err := w.MultiQueryLocations(3, 11*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		idx  streach.IndexConfig
	}{
		{"overlap-filter", streach.IndexConfig{SlotSeconds: 300}},
		{"no-overlap-filter", streach.IndexConfig{SlotSeconds: 300, NoOverlapFilter: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sys, err := streach.NewSystemFromData(w.Net, w.DS, tc.idx)
			if err != nil {
				b.Fatal(err)
			}
			sys.Warm(11*time.Hour, 10*time.Minute)
			var maxRegion int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := sys.ReachMulti(locs, 11*time.Hour, 10*time.Minute, 0.2)
				if err != nil {
					b.Fatal(err)
				}
				maxRegion += int64(r.Metrics.MaxRegion)
			}
			b.ReportMetric(float64(maxRegion)/float64(b.N), "maxregion/op")
		})
	}
}
