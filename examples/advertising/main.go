// Location-based advertising (thesis Fig 1.2): a shopping mall wants to
// know where to distribute coupons — the area its customers can reach it
// from (equivalently, that is reachable from it) shrinks at rush hour.
// This example compares the mall's reachable region at 13:00 against
// 18:00 and writes both regions as GeoJSON for a map.
//
// Run with: go run ./examples/advertising
package main

import (
	"context"
	"fmt"
	"log"
	"os"
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
		Seed:            21,
	}, streach.FleetConfig{Taxis: 130, Days: 12, Seed: 22}, streach.DefaultIndexConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// The "mall" sits on the busiest midday segment.
	mall := sys.BusiestLocation(13 * time.Hour)
	fmt.Printf("mall location: (%.5f, %.5f)\n\n", mall.Lat, mall.Lng)

	for _, tc := range []struct {
		name  string
		start time.Duration
	}{
		{"13:00 (midday)", 13 * time.Hour},
		{"18:00 (evening rush)", 18 * time.Hour},
	} {
		if err := sys.WarmCtx(context.Background(), tc.start, 10*time.Minute); err != nil { // offline Con-Index construction
			log.Fatal(err)
		}
		// Each query runs under a 15 s deadline: if the index were cold
		// and slow, the query would abort rather than hang the report.
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		region, err := sys.Do(ctx, streach.ReachRequest(mall, tc.start, 10*time.Minute, 0.2))
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %4d segments, %6.1f km coupon-drop area (answered in %v)\n",
			tc.name+":", len(region.SegmentIDs), region.RoadKm, region.Metrics.Elapsed)

		gj, err := region.GeoJSON()
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("advertising_%02dh.geojson", int(tc.start.Hours()))
		if err := os.WriteFile(name, []byte(gj), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s wrote %s\n", "", name)
	}

	fmt.Println("\nthe rush-hour region is smaller: traffic congestion cuts how far")
	fmt.Println("customers travel in 10 minutes, so the 18:00 coupon area should be tighter.")
}
