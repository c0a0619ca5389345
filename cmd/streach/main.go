// Command streach builds a synthetic city + taxi fleet, constructs the
// ST-Index and Con-Index, and answers spatio-temporal reachability
// queries, serves them over HTTP, or regenerates the paper's evaluation
// figures. Run "streach help" for the command list and
// "streach <command> -h" for a command's flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"streach"
	"streach/internal/experiments"
	"streach/internal/roadnet"
)

// commands drives both dispatch and usage().
var commands = []struct {
	name, summary string
	run           func([]string) error
}{
	{"stats", "print the generated world's Table 4.1-style statistics", runStats},
	{"query", "answer a single-location reachability query (s-query)", runQuery},
	{"mquery", "answer a multi-location reachability query (m-query)", runMQuery},
	{"route", "plan a time-dependent route between two busy locations", runRoute},
	{"gen-gps", "simulate a fleet and emit its raw GPS records as CSV", runGenGPS},
	{"match", "map-match a GPS CSV onto the network, writing a dataset", runMatch},
	{"serve", `serve reachability and route queries over HTTP
(JSON/GeoJSON /v1/reach, /v1/route, /healthz, /metrics;
request deadlines propagate into the query engine)`, runServe},
	{"ingest", `map-match a GPS CSV and replay it open-loop against a
running serve's POST /v1/ingest at a target rate`, runIngest},
	// overload stays: its CI leg has no bench/ replacement until ROADMAP 1(b).
	{"overload", `flood a running serve past its admission limit and report
status mix, latency quantiles, and self-protection metrics`, runOverload},
	{"experiment", "regenerate the paper's evaluation tables and figures", runExperiment},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "help", "-h", "--help":
		usage()
		return
	}
	for _, c := range commands {
		if c.name != cmd {
			continue
		}
		if err := c.run(args); err != nil {
			fmt.Fprintln(os.Stderr, "streach:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "streach: unknown command %q\n", cmd)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: streach <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		summary := strings.ReplaceAll(c.summary, "\n", "\n               ")
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", c.name, summary)
	}
	fmt.Fprint(os.Stderr, "\nrun \"streach <command> -h\" for command flags\n")
}

// worldFlags registers the shared world-sizing flags.
type worldFlags struct {
	rows, cols  int
	spacing     float64
	reseg       float64
	taxis, days int
	seed        int64
	slotSecs    int
}

func addWorldFlags(fs *flag.FlagSet) *worldFlags {
	w := &worldFlags{}
	fs.IntVar(&w.rows, "rows", 12, "arterial grid rows")
	fs.IntVar(&w.cols, "cols", 12, "arterial grid columns")
	fs.Float64Var(&w.spacing, "spacing", 1000, "arterial block size in metres")
	fs.Float64Var(&w.reseg, "reseg", 500, "re-segmentation granularity in metres (0 = off)")
	fs.IntVar(&w.taxis, "taxis", 150, "fleet size")
	fs.IntVar(&w.days, "days", 30, "days of trajectories")
	fs.Int64Var(&w.seed, "seed", 7, "world seed")
	fs.IntVar(&w.slotSecs, "dt", 300, "index granularity Δt in seconds")
	return w
}

func (w *worldFlags) config() experiments.Config {
	return experiments.Config{
		CityRows: w.rows, CityCols: w.cols,
		SpacingMeters:   w.spacing,
		ResegmentMeters: w.reseg,
		Taxis:           w.taxis,
		Days:            w.days,
		Seed:            w.seed,
	}
}

func (w *worldFlags) build() (*experiments.World, error) {
	fmt.Fprintf(os.Stderr, "building world: %dx%d city, %d taxis x %d days (seed %d)...\n",
		w.rows, w.cols, w.taxis, w.days, w.seed)
	t0 := time.Now()
	world, err := experiments.BuildWorld(w.config())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "world ready in %.1fs\n", time.Since(t0).Seconds())
	return world, nil
}

// buildNetworkOnly regenerates the deterministic road network from the
// world flags without simulating a fleet.
func buildNetworkOnly(wf *worldFlags) (net *roadnet.Network, err error) {
	return streach.BuildCity(streach.CityConfig{
		OriginLat: 22.45, OriginLng: 113.90,
		Rows: wf.rows, Cols: wf.cols,
		SpacingMeters:   wf.spacing,
		LocalFraction:   0.4,
		ResegmentMeters: wf.reseg,
		Seed:            wf.seed,
	})
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	wf := addWorldFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	world, err := wf.build()
	if err != nil {
		return err
	}
	if err := experiments.Table41(os.Stdout, world); err != nil {
		return err
	}
	experiments.Table42(os.Stdout)
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	wf := addWorldFlags(fs)
	lat := fs.Float64("lat", 0, "query latitude (0 = busiest segment)")
	lng := fs.Float64("lng", 0, "query longitude")
	start := fs.Duration("start", 11*time.Hour, "start time of day T")
	dur := fs.Duration("dur", 10*time.Minute, "duration L")
	prob := fs.Float64("prob", 0.2, "reachability probability threshold")
	alg := fs.String("alg", "sqmb", "algorithm: sqmb (SQMB+TBS) or es (exhaustive)")
	geojson := fs.String("geojson", "", "write the region as GeoJSON to this file")
	htmlOut := fs.String("html", "", "write the region as a Leaflet HTML map to this file")
	dir := fs.String("dir", "", "system save directory: reopened when it holds a saved system, written after -precompute")
	precompute := fs.Bool("precompute", false, "warm the query window, and save with -dir")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := loadOrBuildSystem(wf, *dir, *precompute, *start, *dur)
	if err != nil {
		return err
	}
	loc := streach.Location{Lat: *lat, Lng: *lng}
	if *lat == 0 && *lng == 0 {
		loc = sys.BusiestLocation(*start)
		fmt.Fprintf(os.Stderr, "using busiest location (%.5f, %.5f)\n", loc.Lat, loc.Lng)
	}
	var algo streach.Algorithm
	switch strings.ToLower(*alg) {
	case "sqmb":
		algo = streach.AlgoAuto
	case "es":
		algo = streach.AlgoExhaustive
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	region, err := sys.Do(context.Background(),
		streach.ReachRequest(loc, *start, *dur, *prob), streach.WithAlgorithm(algo))
	if err != nil {
		return err
	}
	printRegion(region)
	if *geojson != "" {
		gj, err := region.GeoJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*geojson, []byte(gj), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d features)\n", *geojson, len(region.SegmentIDs))
	}
	if *htmlOut != "" {
		page, err := region.LeafletHTML(fmt.Sprintf("Prob-reachable region (T=%v, L=%v, Prob=%.0f%%)", *start, *dur, *prob*100))
		if err != nil {
			return err
		}
		if err := os.WriteFile(*htmlOut, []byte(page), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *htmlOut)
	}
	return nil
}

func runRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	wf := addWorldFlags(fs)
	depart := fs.Duration("depart", 8*time.Hour, "departure time of day")
	if err := fs.Parse(args); err != nil {
		return err
	}
	world, err := wf.build()
	if err != nil {
		return err
	}
	sys, err := world.System(wf.slotSecs)
	if err != nil {
		return err
	}
	locs, err := world.MultiQueryLocations(2, *depart)
	if err != nil {
		return err
	}
	from, to := locs[0], locs[1]
	fmt.Fprintf(os.Stderr, "route: (%.5f, %.5f) -> (%.5f, %.5f)\n", from.Lat, from.Lng, to.Lat, to.Lng)
	tdRegion, err := sys.Do(context.Background(), streach.RouteRequest(from, to, *depart))
	if err != nil {
		return err
	}
	ffRegion, err := sys.Do(context.Background(), streach.RouteRequest(from, to, 0),
		streach.WithAlgorithm(streach.AlgoFreeFlow))
	if err != nil {
		return err
	}
	td, ff := tdRegion.Route, ffRegion.Route
	fmt.Printf("time-dependent @ %v: %v over %.1f km (%d segments)\n",
		*depart, td.TravelTime.Round(time.Second), td.DistanceKm, len(td.SegmentIDs))
	fmt.Printf("free-flow (static):   %v over %.1f km (%d segments)\n",
		ff.TravelTime.Round(time.Second), ff.DistanceKm, len(ff.SegmentIDs))
	return nil
}

func runMQuery(args []string) error {
	fs := flag.NewFlagSet("mquery", flag.ExitOnError)
	wf := addWorldFlags(fs)
	n := fs.Int("n", 3, "number of query locations (busy, mutually distant)")
	start := fs.Duration("start", 11*time.Hour, "start time of day T")
	dur := fs.Duration("dur", 10*time.Minute, "duration L")
	prob := fs.Float64("prob", 0.2, "reachability probability threshold")
	alg := fs.String("alg", "mqmb", "algorithm: mqmb (MQMB+TBS) or seq (n x SQMB+TBS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	world, err := wf.build()
	if err != nil {
		return err
	}
	sys, err := world.System(wf.slotSecs)
	if err != nil {
		return err
	}
	locs, err := world.MultiQueryLocations(*n, *start)
	if err != nil {
		return err
	}
	for i, l := range locs {
		fmt.Fprintf(os.Stderr, "location %d: (%.5f, %.5f)\n", i+1, l.Lat, l.Lng)
	}
	var algo streach.Algorithm
	switch strings.ToLower(*alg) {
	case "mqmb":
		algo = streach.AlgoAuto
	case "seq":
		algo = streach.AlgoSequential
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	region, err := sys.Do(context.Background(),
		streach.MultiRequest(locs, *start, *dur, *prob), streach.WithAlgorithm(algo))
	if err != nil {
		return err
	}
	printRegion(region)
	return nil
}

// loadOrBuildSystem resolves the query system: reopen a saved directory
// when one is present, otherwise build the world from flags; with
// precompute, warm the Con-Index rows for the query window on all cores
// and (when dir is set) save the system. The warmed rows are not saved:
// a reopened system starts cold.
func loadOrBuildSystem(wf *worldFlags, dir string, precompute bool, start, dur time.Duration) (*streach.System, error) {
	if dir != "" && !precompute {
		if _, err := os.Stat(filepath.Join(dir, "network.bin")); err == nil {
			fmt.Fprintf(os.Stderr, "reopening saved system in %s...\n", dir)
			t0 := time.Now()
			sys, err := streach.OpenSystem(dir, streach.DefaultIndexConfig())
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "system open in %.2fs\n", time.Since(t0).Seconds())
			return sys, nil
		}
	}
	world, err := wf.build()
	if err != nil {
		return nil, err
	}
	sys, err := world.System(wf.slotSecs)
	if err != nil {
		return nil, err
	}
	if precompute {
		t0 := time.Now()
		if err := sys.WarmCtx(context.Background(), start, dur); err != nil {
			return nil, fmt.Errorf("precompute: %w", err)
		}
		stats := sys.Engine().ConIndex().Stats()
		fmt.Fprintf(os.Stderr, "precomputed %d adjacency rows in %.2fs\n",
			stats.Materialised, time.Since(t0).Seconds())
		if dir != "" {
			t0 = time.Now()
			if err := sys.Save(dir); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "saved system to %s in %.2fs\n",
				dir, time.Since(t0).Seconds())
		}
	}
	return sys, nil
}

// printRegion prints an answer and what it cost. Page reads repeat run to
// run; pool hits vary with how the candidates split across the
// verification workers (GOMAXPROCS of them): each worker's blob reader
// memoises the pages it has touched, so a page costs one pool lookup per
// worker that reads it.
func printRegion(r *streach.Region) {
	fmt.Printf("Prob-reachable region: %d segments, %.1f km of road\n",
		len(r.SegmentIDs), r.RoadKm)
	fmt.Printf("processing: %v, %d segments verified, %d page reads, %d pool hits\n",
		r.Metrics.Elapsed, r.Metrics.Evaluated, r.Metrics.PageReads, r.Metrics.PageHits)
	if r.Metrics.Bound+r.Metrics.Verify > 0 {
		fmt.Printf("phase split: bound %v, verify %v\n", r.Metrics.Bound, r.Metrics.Verify)
	}
	if r.Metrics.ConHits+r.Metrics.ConMaterialised > 0 {
		fmt.Printf("con-index adjacency: %d hits, %d materialised\n",
			r.Metrics.ConHits, r.Metrics.ConMaterialised)
	}
	if r.Metrics.TLCacheHits+r.Metrics.TLCacheMisses > 0 {
		fmt.Printf("time-list cache: %d hits, %d misses\n",
			r.Metrics.TLCacheHits, r.Metrics.TLCacheMisses)
	}
	if r.Metrics.MaxRegion > 0 {
		fmt.Printf("bounding regions: max %d, min %d segments\n",
			r.Metrics.MaxRegion, r.Metrics.MinRegion)
	}
}

func runExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	wf := addWorldFlags(fs)
	fig := fs.String("fig", "all", "figure/table id: all, 4.1 .. 4.9, t4.1, t4.2")
	if err := fs.Parse(args); err != nil {
		return err
	}
	world, err := wf.build()
	if err != nil {
		return err
	}
	out := os.Stdout
	want := func(id string) bool { return *fig == "all" || *fig == id }

	if want("t4.1") {
		if err := experiments.Table41(out, world); err != nil {
			return err
		}
	}
	if want("t4.2") {
		experiments.Table42(out)
	}
	if want("4.1") {
		rows, err := experiments.Fig41(world)
		if err != nil {
			return err
		}
		experiments.PrintFig41(out, rows)
	}
	if want("4.2") {
		rows, err := experiments.Fig42(world)
		if err != nil {
			return err
		}
		experiments.PrintFig42(out, rows)
	}
	if want("4.3") {
		rows, err := experiments.Fig43(world)
		if err != nil {
			return err
		}
		experiments.PrintFig43(out, rows)
	}
	if want("4.4") {
		rows, err := experiments.Fig44(world)
		if err != nil {
			return err
		}
		experiments.PrintFig44(out, rows)
	}
	if want("4.5") {
		rows, err := experiments.Fig45(world)
		if err != nil {
			return err
		}
		experiments.PrintFig45(out, rows)
	}
	if want("4.6") {
		rows, err := experiments.Fig46(world)
		if err != nil {
			return err
		}
		experiments.PrintFig46(out, rows)
	}
	if want("4.7") {
		rows, err := experiments.Fig47(world)
		if err != nil {
			return err
		}
		experiments.PrintFig47(out, rows)
	}
	if want("4.8a") {
		rows, err := experiments.Fig48a(world)
		if err != nil {
			return err
		}
		experiments.PrintFig48a(out, rows)
	}
	if want("4.8b") {
		rows, err := experiments.Fig48b(world, 10)
		if err != nil {
			return err
		}
		experiments.PrintFig48b(out, rows)
	}
	if want("4.9") {
		res, err := experiments.Fig49(world)
		if err != nil {
			return err
		}
		experiments.PrintFig49(out, res)
	}
	return nil
}
