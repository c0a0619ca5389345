// Emergency dispatching analysis (thesis §1.1, application 4): a
// dispatcher compares candidate depot sites by how much of the city each
// can actually reach within a response window, at different times of day.
// Because the index is data-driven, the same site scores differently at
// 03:00 and at 18:00. The site x window grid is answered in parallel:
// one Do call per cell, each on its own goroutine, since Do is safe for
// concurrent use.
//
// Run with: go run ./examples/dispatch
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
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
		Seed:            41,
	}, streach.FleetConfig{Taxis: 130, Days: 12, Seed: 42}, streach.DefaultIndexConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Candidate depot sites: downtown, mid-town, and edge of town.
	downtown := sys.BusiestLocation(10 * time.Hour)
	sites := []struct {
		name string
		loc  streach.Location
	}{
		{"downtown", downtown},
		{"mid-town", streach.Location{Lat: downtown.Lat + 0.02, Lng: downtown.Lng + 0.01}},
		{"edge", streach.Location{Lat: downtown.Lat + 0.035, Lng: downtown.Lng + 0.03}},
	}
	windows := []time.Duration{3 * time.Hour, 8 * time.Hour, 18 * time.Hour}

	const (
		response = 10 * time.Minute
		prob     = 0.2
	)
	fmt.Printf("%-10s", "site")
	for _, w := range windows {
		fmt.Printf("  %9s", fmt.Sprintf("%02d:00 km", int(w.Hours())))
	}
	fmt.Println()

	type score struct {
		name  string
		total float64
	}
	ctx := context.Background()
	for _, w := range windows {
		if err := sys.WarmCtx(ctx, w, response); err != nil { // offline Con-Index construction
			log.Fatal(err)
		}
	}
	// The whole site x window grid, answered in parallel.
	km := make([][]float64, len(sites))
	var wg sync.WaitGroup
	for i, site := range sites {
		km[i] = make([]float64, len(windows))
		for j, w := range windows {
			wg.Add(1)
			go func() {
				defer wg.Done()
				region, err := sys.Do(ctx, streach.ReachRequest(site.loc, w, response, prob))
				if err != nil {
					log.Fatal(err)
				}
				km[i][j] = region.RoadKm
			}()
		}
	}
	wg.Wait()

	var best score
	for i, site := range sites {
		fmt.Printf("%-10s", site.name)
		var total float64
		for _, v := range km[i] {
			fmt.Printf("  %9.1f", v)
			total += v
		}
		fmt.Println()
		if total > best.total {
			best = score{site.name, total}
		}
	}
	fmt.Printf("\nbest overall 10-minute response coverage: %s\n", best.name)
	fmt.Println("note how every site's 18:00 coverage shrinks relative to 03:00 — the")
	fmt.Println("rush-hour effect the static distance-based approach cannot capture.")
}
