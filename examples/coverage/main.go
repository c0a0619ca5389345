// Business coverage analysis (thesis Fig 1.1/4.9): a chained company with
// several branches wants its overall spatial coverage — the union of each
// branch's reachable region. This is the m-query scenario: MQMB answers
// it in one pass, eliminating the work duplicated in overlapping regions.
//
// Run with: go run ./examples/coverage
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"streach"
)

func main() {
	sys, err := streach.NewSystem(streach.CityConfig{
		OriginLat: 22.50, OriginLng: 114.00,
		Rows: 12, Cols: 12,
		SpacingMeters:   900,
		LocalFraction:   0.4,
		ResegmentMeters: 450,
		Seed:            31,
	}, streach.FleetConfig{Taxis: 130, Days: 12, Seed: 32}, streach.DefaultIndexConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Three branch locations: downtown plus two offsets.
	hq := sys.BusiestLocation(11 * time.Hour)
	branches := []streach.Location{
		hq,
		{Lat: hq.Lat + 0.018, Lng: hq.Lng + 0.004},
		{Lat: hq.Lat - 0.006, Lng: hq.Lng + 0.020},
	}
	for i, b := range branches {
		fmt.Printf("branch %d: (%.5f, %.5f)\n", i+1, b.Lat, b.Lng)
	}
	const (
		start = 11 * time.Hour
		dur   = 15 * time.Minute
		prob  = 0.2
	)

	ctx := context.Background()
	if err := sys.WarmCtx(ctx, start, dur); err != nil { // offline Con-Index construction
		log.Fatal(err)
	}

	// Coverage per branch (s-queries).
	fmt.Println("\nper-branch 15-minute coverage:")
	for i, b := range branches {
		r, err := sys.Do(ctx, streach.ReachRequest(b, start, dur, prob))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  branch %d: %4d segments, %6.1f km\n", i+1, len(r.SegmentIDs), r.RoadKm)
	}

	// Overall coverage two ways: the m-query and the naive union — the
	// same request, dispatched through two algorithms.
	mreq := streach.MultiRequest(branches, start, dur, prob)
	m, err := sys.Do(ctx, mreq)
	if err != nil {
		log.Fatal(err)
	}
	seq, err := sys.Do(ctx, mreq, streach.WithAlgorithm(streach.AlgoSequential))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noverall coverage (MQMB, one pass):    %4d segments, %6.1f km in %v\n",
		len(m.SegmentIDs), m.RoadKm, m.Metrics.Elapsed)
	fmt.Printf("overall coverage (3 s-queries union): %4d segments, %6.1f km in %v\n",
		len(seq.SegmentIDs), seq.RoadKm, seq.Metrics.Elapsed)
	fmt.Printf("\nMQMB verified %d segments vs %d for the sequential union\n",
		m.Metrics.Evaluated, seq.Metrics.Evaluated)

	cityKm := sys.Stats().RoadKm
	fmt.Printf("the chain covers %.0f%% of the city's %.0f km road network within 15 minutes\n",
		100*m.RoadKm/cityKm, cityKm)
}
