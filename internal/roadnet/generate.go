package roadnet

import (
	"fmt"
	"math/rand"
	"slices"

	"streach/internal/geo"
)

// GenerateConfig controls the synthetic metropolis generator that stands
// in for the Shenzhen road network (DESIGN.md §2). The generated city is a
// jittered arterial grid with one-way ring/cross highways and denser local
// streets near the centre.
type GenerateConfig struct {
	// Origin is the south-west corner of the city.
	Origin geo.Point
	// Rows and Cols set the arterial grid dimensions (intersections).
	Rows, Cols int
	// SpacingMeters is the arterial block edge length.
	SpacingMeters float64
	// LocalFraction in [0,1] sets how many blocks get extra local streets.
	LocalFraction float64
	// Seed drives all generator randomness.
	Seed int64
}

// DefaultGenerateConfig mirrors the paper's evaluation city scale:
// roughly 400 square miles (~32 km x 32 km) of urban area.
func DefaultGenerateConfig() GenerateConfig {
	return GenerateConfig{
		Origin:        geo.Point{Lat: 22.45, Lng: 113.90}, // Shenzhen-ish
		Rows:          24,
		Cols:          24,
		SpacingMeters: 1400,
		LocalFraction: 0.35,
		Seed:          1,
	}
}

// Generate builds a synthetic city network. The result is strongly
// connected (every segment can reach every other), which Generate
// verifies; it returns an error if the construction ever breaks that
// invariant.
func Generate(cfg GenerateConfig) (*Network, error) {
	if cfg.Rows < 2 || cfg.Cols < 2 {
		return nil, fmt.Errorf("roadnet: grid must be at least 2x2, got %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.SpacingMeters <= 0 {
		return nil, fmt.Errorf("roadnet: spacing must be positive, got %v", cfg.SpacingMeters)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder()

	// Jittered grid of intersections.
	pts := make([][]geo.Point, cfg.Rows)
	for r := 0; r < cfg.Rows; r++ {
		pts[r] = make([]geo.Point, cfg.Cols)
		for c := 0; c < cfg.Cols; c++ {
			jx := (rng.Float64() - 0.5) * cfg.SpacingMeters * 0.25
			jy := (rng.Float64() - 0.5) * cfg.SpacingMeters * 0.25
			pts[r][c] = geo.Offset(cfg.Origin,
				float64(c)*cfg.SpacingMeters+jx,
				float64(r)*cfg.SpacingMeters+jy)
		}
	}

	addRoad := func(shape geo.Polyline, class RoadClass, oneWay bool) error {
		_, err := b.AddRoad(shape, class, oneWay)
		return err
	}

	// Arterial grid: two-way primary roads along rows and columns.
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if c+1 < cfg.Cols {
				if err := addRoad(geo.Polyline{pts[r][c], pts[r][c+1]}, Primary, false); err != nil {
					return nil, err
				}
			}
			if r+1 < cfg.Rows {
				if err := addRoad(geo.Polyline{pts[r][c], pts[r+1][c]}, Primary, false); err != nil {
					return nil, err
				}
			}
		}
	}

	// Highways: two cross expressways through the middle row/column plus a
	// ring at ~2/3 radius. Two-way so they never strand traffic.
	midR, midC := cfg.Rows/2, cfg.Cols/2
	var acrossRow geo.Polyline
	for c := 0; c < cfg.Cols; c++ {
		acrossRow = append(acrossRow, geo.Offset(pts[midR][c], 0, cfg.SpacingMeters*0.35))
	}
	// Split each highway at its middle ramp so the ramps attach at real
	// vertices rather than mid-polyline. On a side of 2 the middle ramp
	// is the end one, and the highway stays whole.
	highway := func(line geo.Polyline, mid int) error {
		if mid == len(line)-1 {
			return addRoad(line, Highway, false)
		}
		if err := addRoad(line[:mid+1], Highway, false); err != nil {
			return err
		}
		return addRoad(line[mid:], Highway, false)
	}
	if err := highway(acrossRow, midC); err != nil {
		return nil, err
	}
	var acrossCol geo.Polyline
	for r := 0; r < cfg.Rows; r++ {
		acrossCol = append(acrossCol, geo.Offset(pts[r][midC], cfg.SpacingMeters*0.35, 0))
	}
	if err := highway(acrossCol, midR); err != nil {
		return nil, err
	}
	// Connect highway endpoints/midpoints to the grid with short ramps so
	// the highways participate in the network (once where the middle is
	// the end).
	ramp := func(a, bp geo.Point) error {
		return addRoad(geo.Polyline{a, bp}, Secondary, false)
	}
	for _, c := range slices.Compact([]int{0, midC, cfg.Cols - 1}) {
		if err := ramp(pts[midR][c], acrossRow[c]); err != nil {
			return nil, err
		}
	}
	for _, r := range slices.Compact([]int{0, midR, cfg.Rows - 1}) {
		if err := ramp(pts[r][midC], acrossCol[r]); err != nil {
			return nil, err
		}
	}

	// Local streets: diagonal shortcuts inside a fraction of blocks, denser
	// towards the centre. Mix of one-way and two-way.
	for r := 0; r+1 < cfg.Rows; r++ {
		for c := 0; c+1 < cfg.Cols; c++ {
			centreBias := 1.0 - (abs(r-midR)+abs(c-midC))/float64(cfg.Rows+cfg.Cols)
			if rng.Float64() > cfg.LocalFraction*centreBias*2 {
				continue
			}
			mid := geo.Lerp(pts[r][c], pts[r+1][c+1], 0.5)
			mid = geo.Offset(mid, (rng.Float64()-0.5)*200, (rng.Float64()-0.5)*200)
			// One-way local loops are built as a pair of opposing one-way
			// diagonals so connectivity is preserved.
			if rng.Float64() < 0.3 {
				if err := addRoad(geo.Polyline{pts[r][c], mid, pts[r+1][c+1]}, Secondary, true); err != nil {
					return nil, err
				}
				if err := addRoad(geo.Polyline{pts[r+1][c+1], mid, pts[r][c]}, Secondary, true); err != nil {
					return nil, err
				}
			} else {
				if err := addRoad(geo.Polyline{pts[r][c], mid, pts[r+1][c+1]}, Secondary, false); err != nil {
					return nil, err
				}
			}
		}
	}

	n := b.Build()
	if err := verifyConnected(n); err != nil {
		return nil, err
	}
	return n, nil
}

func abs(x int) float64 {
	if x < 0 {
		return float64(-x)
	}
	return float64(x)
}

// verifyConnected checks the strong-connectivity invariant the queries
// rely on: any snapped start segment can reach the whole city, and the
// whole city can reach any destination. Segment 0 reaching every segment
// and every segment reaching it is enough.
func verifyConnected(n *Network) error {
	if n.NumSegments() == 0 {
		return fmt.Errorf("roadnet: generated empty network")
	}
	for dir, how := range [2]string{"reachable from", "reaching"} {
		if got := n.ReachableFrom(0, Direction(dir)); got != n.NumSegments() {
			return fmt.Errorf("roadnet: generated network not strongly connected: %d of %d segments %s segment 0",
				got, n.NumSegments(), how)
		}
	}
	return nil
}
