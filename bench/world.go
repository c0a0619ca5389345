package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"streach"
	"streach/internal/traj"
)

// The benchmark world. The issue's w20 (20x20 grid, 500 taxis, 30 days,
// all-day shifts: 19.6 M visits, 16 s build) does not fit the run cap of
// 92 runs in 3420 s, so the fleet's shift is cut to the six hours the
// workloads query. Grid, fleet and days - and with them the per-slot
// density, the bounding-region sizes and the cache ratios - stay w20's;
// only the hours nobody queries are gone (4.1 M visits, 1.9 s index
// build). The world is fixed: -seed drives the request samplers, not the
// city, so runs with different seeds time different loads on one index.
const (
	worldRows  = 20
	worldCols  = 20
	worldTaxis = 500
	worldDays  = 30
	citySeed   = 1
	fleetSeed  = 2

	shiftStart = 6 * time.Hour
	shiftEnd   = 12 * time.Hour

	// setupReps is how many times each set-up stage runs per invocation;
	// the median is reported, so one slow disk flush does not move
	// setup_s.
	setupReps = 3
)

// indexConfig is the configuration every workload opens the world with:
// the defaults (300 s slots, 1024 pool pages = 4 MiB, 8192 decoded
// lists, 32 plans).
func indexConfig() streach.IndexConfig { return streach.DefaultIndexConfig() }

// worldSetup is the part of the set-up every workload shares, timed in
// the parent process.
type worldSetup struct {
	SimulateS float64 // city + fleet simulation (input generation), once
	BuildS    float64 // NewSystemFromData, median of setupReps
	SaveS     float64 // System.Save, median of setupReps
	Visits    int
}

func (w worldSetup) total() float64 { return w.SimulateS + w.BuildS + w.SaveS }

// buildWorld simulates the fleet once, then builds both indexes and
// saves them into dir setupReps times, keeping the last save.
func buildWorld(dir string, logf func(string, ...any)) (worldSetup, error) {
	var out worldSetup
	t0 := time.Now()
	city := streach.DefaultCityConfig()
	city.Rows, city.Cols, city.Seed = worldRows, worldCols, citySeed
	net, err := streach.BuildCity(city)
	if err != nil {
		return out, err
	}
	ds, err := traj.Simulate(net, traj.SimConfig{
		Taxis: worldTaxis, Days: worldDays, Seed: fleetSeed,
		Profile: traj.DefaultSpeedProfile(), DaySpeedJitter: 0.15,
		ActiveStartSec: int(shiftStart.Seconds()), ActiveEndSec: int(shiftEnd.Seconds()),
	})
	if err != nil {
		return out, fmt.Errorf("simulate fleet: %w", err)
	}
	out.SimulateS = time.Since(t0).Seconds()

	var builds, saves []float64
	for rep := 0; rep < setupReps; rep++ {
		if err := os.RemoveAll(dir); err != nil {
			return out, err
		}
		t0 = time.Now()
		sys, err := streach.NewSystemFromData(net, ds, indexConfig())
		if err != nil {
			return out, err
		}
		builds = append(builds, time.Since(t0).Seconds())
		t0 = time.Now()
		if err := sys.Save(dir); err != nil {
			sys.Close()
			return out, err
		}
		saves = append(saves, time.Since(t0).Seconds())
		out.Visits = sys.Stats().Visits
		if err := sys.Close(); err != nil {
			return out, err
		}
	}
	out.BuildS, out.SaveS = median(builds), median(saves)
	logf("world: %d visits, simulate %.2fs, build %.2fs, save %.2fs (medians of %d)",
		out.Visits, out.SimulateS, out.BuildS, out.SaveS, setupReps)
	return out, nil
}

// openWarm opens the saved world and warms the Con-Index over
// [warmFrom, warmFrom+warmFor] setupReps times, returning the last
// system with the median open and warm times. warmFor == 0 skips the
// warm (cold-bound measures exactly that cost at query time).
func openWarm(dir string, warmFrom, warmFor time.Duration) (sys *streach.System, openS, warmS float64, err error) {
	var opens, warms []float64
	for rep := 0; rep < setupReps; rep++ {
		if sys != nil {
			if err := closeAndFree(sys); err != nil {
				return nil, 0, 0, err
			}
		}
		t0 := time.Now()
		if sys, err = streach.OpenSystem(dir, indexConfig()); err != nil {
			return nil, 0, 0, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		t0 = time.Now()
		if warmFor > 0 {
			if err := sys.WarmCtx(context.Background(), warmFrom, warmFor); err != nil {
				sys.Close()
				return nil, 0, 0, err
			}
		}
		warms = append(warms, time.Since(t0).Seconds())
	}
	return sys, median(opens), median(warms), nil
}

// closeAndFree closes a system the harness is done with and returns its
// memory to the operating system before the next one is opened, so that
// peak_rss_mb is the footprint of one system serving the workload and
// not of however many the harness happened to open before the collector
// next ran.
func closeAndFree(sys *streach.System) error {
	err := sys.Close()
	debug.FreeOSMemory()
	return err
}

// copyDir copies the regular files and directories under src into dst
// (created), without asking the system that owns src to close first -
// the state a crash would leave behind.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
