// Package experiments regenerates every table and figure of the thesis's
// evaluation chapter (Chapter 4) on the synthetic metropolis. Each
// figure has one function returning typed rows plus a printer, consumed
// by both the root-level benchmarks and `cmd/streach experiment`.
//
// Absolute numbers differ from the paper (their testbed was 194 GB of
// real Shenzhen GPS on server hardware; ours is a laptop-scale synthetic
// city), but the comparative shapes are expected to hold. The measured
// rows are printed by `streach experiment -fig N` and by the root
// package's figure benchmarks; no paper-vs-measured record is kept.
package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"streach"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/traj"
)

// Config sizes the experiment world. Defaults mirror the paper's setup
// at laptop scale: a ~12x12 km city, 500 m re-segmentation, a taxi fleet
// observed for 30 days, Δt = 5 min.
type Config struct {
	CityRows, CityCols int
	SpacingMeters      float64
	ResegmentMeters    float64
	Taxis              int
	Days               int
	Seed               int64
}

// DefaultConfig returns the standard experiment world.
func DefaultConfig() Config {
	return Config{
		CityRows: 12, CityCols: 12,
		SpacingMeters:   1000,
		ResegmentMeters: 500,
		Taxis:           400,
		Days:            30,
		Seed:            7,
	}
}

// SmallConfig returns a fast world for smoke tests.
func SmallConfig() Config {
	return Config{
		CityRows: 6, CityCols: 6,
		SpacingMeters:   900,
		ResegmentMeters: 450,
		Taxis:           40,
		Days:            6,
		Seed:            7,
	}
}

// World is a built experiment environment: one city and fleet, with
// systems (index pairs) built lazily per Δt.
type World struct {
	Cfg Config
	Net *roadnet.Network
	DS  *traj.Dataset

	mu      sync.Mutex
	systems map[int]*streach.System
}

// BuildWorld generates the city and simulates the fleet once.
func BuildWorld(cfg Config) (*World, error) {
	net, err := streach.BuildCity(streach.CityConfig{
		OriginLat: 22.45, OriginLng: 113.90,
		Rows: cfg.CityRows, Cols: cfg.CityCols,
		SpacingMeters:   cfg.SpacingMeters,
		LocalFraction:   0.4,
		ResegmentMeters: cfg.ResegmentMeters,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	ds, err := traj.Simulate(net, traj.SimConfig{
		Taxis:           cfg.Taxis,
		Days:            cfg.Days,
		Profile:         traj.DefaultSpeedProfile(),
		Seed:            cfg.Seed + 1,
		MeanTripMinutes: 18,
		MeanIdleMinutes: 14,
		DaySpeedJitter:  0.15,
	})
	if err != nil {
		return nil, err
	}
	return &World{Cfg: cfg, Net: net, DS: ds, systems: map[int]*streach.System{}}, nil
}

// System returns (building on first use) the system indexed at the given
// Δt granularity in seconds.
func (w *World) System(slotSec int) (*streach.System, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.systems[slotSec]; ok {
		return s, nil
	}
	s, err := streach.NewSystemFromData(w.Net, w.DS, streach.IndexConfig{
		SlotSeconds: slotSec,
		PoolPages:   2048,
	})
	if err != nil {
		return nil, err
	}
	w.systems[slotSec] = s
	return s, nil
}

// QueryLocation returns the standard query origin: the busiest segment
// at 11:00, mirroring the paper's fixed downtown location
// s = (22.5311, 114.0550).
func (w *World) QueryLocation() (streach.Location, error) {
	sys, err := w.System(300)
	if err != nil {
		return streach.Location{}, err
	}
	return sys.BusiestLocation(11 * time.Hour), nil
}

// MultiQueryLocations returns up to n busy, mutually distant locations
// for m-query experiments.
func (w *World) MultiQueryLocations(n int, tod time.Duration) ([]streach.Location, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: need n > 0")
	}
	// Rank segments by distinct traffic days in the slot containing tod,
	// as System.BusiestLocation does.
	sys, err := w.System(300)
	if err != nil {
		return nil, err
	}
	x := sys.Engine().STIndex()
	traffic, err := x.SlotTraffic(int(tod / (time.Duration(x.SlotSeconds()) * time.Second)))
	if err != nil {
		return nil, err
	}
	var ranked []roadnet.SegmentID
	for seg, days := range traffic {
		if days > 0 {
			ranked = append(ranked, roadnet.SegmentID(seg))
		}
	}
	// Stable: equal traffic keeps the lowest ID first.
	sort.SliceStable(ranked, func(i, j int) bool { return traffic[ranked[i]] > traffic[ranked[j]] })
	const minSpacing = 1500.0 // metres between query locations
	var picked []geo.Point
	var out []streach.Location
	for _, seg := range ranked {
		p := w.Net.Segment(seg).Midpoint()
		tooClose := false
		for _, q := range picked {
			if geo.Distance(p, q) < minSpacing {
				tooClose = true
				break
			}
		}
		if tooClose {
			continue
		}
		picked = append(picked, p)
		out = append(out, streach.Location{Lat: p.Lat, Lng: p.Lng})
		if len(out) == n {
			break
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("experiments: only found %d of %d distant busy locations", len(out), n)
	}
	return out, nil
}
