package traj

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"streach/internal/geo"
	"streach/internal/roadnet"
)

// SimConfig controls the synthetic taxi-fleet simulator.
type SimConfig struct {
	// Taxis is the fleet size.
	Taxis int
	// Days is how many consecutive days to simulate.
	Days int
	// BaseDate is midnight of day 0. Zero means 2014-11-01 UTC, matching
	// the paper's November 2014 collection window.
	BaseDate time.Time
	// Profile is the time-of-day congestion model.
	Profile SpeedProfile
	// Seed drives all randomness.
	Seed int64
	// MeanTripMinutes is the average trip duration (exponential).
	MeanTripMinutes float64
	// MeanIdleMinutes is the average idle gap between trips (exponential).
	MeanIdleMinutes float64
	// ActiveStartSec/ActiveEndSec bound each taxi's shift within the day.
	// Zero values mean the full day.
	ActiveStartSec, ActiveEndSec int
	// DaySpeedJitter scales each day's overall speed by U(1-j, 1+j),
	// creating the day-to-day variation that Prob-reachability measures.
	DaySpeedJitter float64
	// CenterAttraction in [0, ~2] biases route choice towards the city
	// centre, concentrating traffic downtown the way real fleets do
	// (default 0.6). Zero disables the bias.
	CenterAttraction float64
}

// DefaultSimConfig returns a laptop-scale stand-in for the Shenzhen fleet.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Taxis:            250,
		Days:             30,
		Profile:          DefaultSpeedProfile(),
		Seed:             1,
		MeanTripMinutes:  18,
		MeanIdleMinutes:  6,
		DaySpeedJitter:   0.15,
		CenterAttraction: 0.6,
	}
}

func (c SimConfig) withDefaults() SimConfig {
	if c.BaseDate.IsZero() {
		c.BaseDate = time.Date(2014, 11, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.MeanTripMinutes <= 0 {
		c.MeanTripMinutes = 18
	}
	if c.MeanIdleMinutes <= 0 {
		c.MeanIdleMinutes = 6
	}
	if c.ActiveEndSec <= c.ActiveStartSec {
		c.ActiveStartSec, c.ActiveEndSec = 0, 86400
	}
	if c.CenterAttraction == 0 {
		c.CenterAttraction = 0.6
	}
	if c.CenterAttraction < 0 {
		c.CenterAttraction = 0
	}
	return c
}

// maxDays is the most days a dataset can span: Day is an int16.
const maxDays = 1 << 15

// maxShiftSec bounds |ActiveStartSec| and |ActiveEndSec|. A visit's
// times are int32 milliseconds, which end at 2 147 483 s. A shift starts
// up to an hour after ActiveStartSec, and its last visit may exit after
// ActiveEndSec: the 147 483 s (41 h) kept in hand cover a visit of 15 km
// at the simulator's slowest speed, 0.105 m/s.
const maxShiftSec = 2_000_000

// validate rejects, before anything is drawn, a config whose output would
// be corrupt: a day past Day's range, a shift whose millisecond times
// would overflow int32, or a non-finite profile or rate that would turn
// speeds and timestamps into NaN. It checks the config as given, before
// withDefaults, so -Inf is not mistaken for "unset".
func (c SimConfig) validate() error {
	if c.Taxis <= 0 || c.Days <= 0 {
		return fmt.Errorf("traj: need positive Taxis and Days, got %d and %d", c.Taxis, c.Days)
	}
	if c.Days > maxDays {
		return fmt.Errorf("traj: Days is %d, at most %d fit a dataset", c.Days, maxDays)
	}
	for _, f := range []struct {
		name string
		sec  int
	}{{"ActiveStartSec", c.ActiveStartSec}, {"ActiveEndSec", c.ActiveEndSec}} {
		if f.sec < -maxShiftSec || f.sec > maxShiftSec {
			return fmt.Errorf("traj: %s is %d, want within ±%d s: visit times are int32 milliseconds", f.name, f.sec, maxShiftSec)
		}
	}
	type field struct {
		name string
		v    float64
	}
	var fields []field
	for i, tr := range c.Profile.Troughs {
		p := fmt.Sprintf("Profile.Troughs[%d].", i)
		fields = append(fields, field{p + "CenterSec", tr.CenterSec}, field{p + "Depth", tr.Depth}, field{p + "WidthSec", tr.WidthSec})
	}
	fields = append(fields,
		field{"Profile.NightBoost", c.Profile.NightBoost},
		field{"MeanTripMinutes", c.MeanTripMinutes},
		field{"MeanIdleMinutes", c.MeanIdleMinutes},
		field{"DaySpeedJitter", c.DaySpeedJitter},
		field{"CenterAttraction", c.CenterAttraction})
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("traj: %s is %v, want a finite number", f.name, f.v)
		}
	}
	for i, tr := range c.Profile.Troughs {
		if tr.WidthSec <= 0 {
			return fmt.Errorf("traj: Profile.Troughs[%d].WidthSec is %v, want > 0", i, tr.WidthSec)
		}
	}
	return nil
}

// Simulate drives a fleet of taxis over the network and returns their
// map-matched trajectories. Taxis perform trips as speed-biased random
// walks (highways preferred on through-travel), with per-segment speeds
// set by road class, the time-of-day congestion profile, a per-day
// multiplier, and per-taxi noise. The output is a fixed function of the
// config and the network — the same random draws in the same order and
// the same bits in every visit — which TestSimulateMatchesReference holds
// against the straightforward implementation.
func Simulate(n *roadnet.Network, cfg SimConfig) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if n.NumSegments() == 0 {
		return nil, fmt.Errorf("traj: cannot simulate on an empty network")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-day speed multipliers.
	dayFactor := make([]float64, cfg.Days)
	for d := range dayFactor {
		dayFactor[d] = 1 + (rng.Float64()*2-1)*cfg.DaySpeedJitter
	}

	s := &simulator{
		cfg:     cfg,
		rng:     rng,
		tables:  newSimTables(n, cfg.CenterAttraction),
		profile: cfg.Profile.compile(),
	}
	ds := &Dataset{BaseDate: cfg.BaseDate, Days: cfg.Days}
	for taxi := 0; taxi < cfg.Taxis; taxi++ {
		taxiJitter := 0.9 + rng.Float64()*0.2
		for day := 0; day < cfg.Days; day++ {
			if visits := s.taxiDay(dayFactor[day] * taxiJitter); len(visits) > 0 {
				ds.Matched = append(ds.Matched, MatchedTrajectory{Taxi: TaxiID(taxi), Day: Day(day), Visits: visits})
			}
		}
	}
	return ds, nil
}

// simTables are the per-segment quantities a simulation reads on every
// visit, flattened once per Simulate call. Successors are in CSR form:
// segment s may continue onto succ[off[s]:off[s+1]], drawn with the
// matching weight, whose sum in scan order is total[s].
type simTables struct {
	freeFlow, length []float64
	off              []int
	succ             []roadnet.SegmentID
	weight           []float64
	total            []float64
}

// newSimTables weights each successor by its free-flow speed so highways
// carry through-traffic, and by 1+attraction when it ends nearer the city
// centre than the segment it leaves, so the fleet concentrates downtown.
// The U-turn onto the twin weighs 0 unless it is the only way out.
func newSimTables(n *roadnet.Network, attraction float64) *simTables {
	nseg := n.NumSegments()
	t := &simTables{
		freeFlow: make([]float64, nseg),
		length:   make([]float64, nseg),
		off:      make([]int, nseg+1),
		total:    make([]float64, nseg),
	}
	center := n.Bounds().Center()
	centerDist := make([]float64, nseg)
	for i := range centerDist {
		seg := n.Segment(roadnet.SegmentID(i))
		t.freeFlow[i] = seg.Class.FreeFlowSpeed()
		t.length[i] = seg.Length
		centerDist[i] = geo.Distance(seg.Midpoint(), center)
	}
	attract := 1 + attraction
	for i := 0; i < nseg; i++ {
		cur := roadnet.SegmentID(i)
		out := n.Outgoing(cur)
		rev := n.Segment(cur).Reverse
		var total float64
		for _, s := range out {
			var w float64
			if s != rev || len(out) == 1 {
				w = t.freeFlow[s]
				if centerDist[s] < centerDist[cur] {
					w *= attract
				}
				total += w
			}
			t.succ = append(t.succ, s)
			t.weight = append(t.weight, w)
		}
		t.total[i] = total
		t.off[i+1] = len(t.succ)
	}
	return t
}

// simulator is one Simulate call's state: the tables, the compiled
// profile, the random stream every draw comes from, and the buffer each
// taxi-day's visits are gathered in before they are copied out.
type simulator struct {
	cfg     SimConfig
	rng     *rand.Rand
	tables  *simTables
	profile compiledProfile
	visits  []Visit
}

// taxiDay simulates one taxi's shift at the day's speed multiplier and
// returns its visits in a slice of their exact length (nil for none).
func (s *simulator) taxiDay(mult float64) []Visit {
	t, rng := s.tables, s.rng
	buf := s.visits[:0]
	// Shift start spreads taxis across the first hour of the window.
	sec := float64(s.cfg.ActiveStartSec) + rng.Float64()*3600
	end := float64(s.cfg.ActiveEndSec)
	cur := roadnet.SegmentID(rng.Intn(len(t.freeFlow)))

	for sec < end {
		tripDur := rng.ExpFloat64() * s.cfg.MeanTripMinutes * 60
		if tripDur < 120 {
			tripDur = 120
		}
		tripEnd := sec + tripDur
		for sec < tripEnd && sec < end {
			// Per-visit noise models lights, stops and micro-congestion:
			// most visits near nominal speed, occasional crawls.
			noise := 0.6 + rng.Float64()*0.65 // U(0.6, 1.25)
			if rng.Float64() < 0.06 {
				noise *= 0.35 // stuck behind a light or pickup
			}
			v := t.freeFlow[cur] * s.profile.factor(sec) * mult
			if v < 0.5 {
				v = 0.5
			}
			speed := v * noise
			dt := t.length[cur] / speed
			buf = append(buf, Visit{
				Segment: cur,
				EnterMs: int32(sec * 1000),
				ExitMs:  int32((sec + dt) * 1000),
				Speed:   float32(speed),
			})
			sec += dt
			next, ok := t.pickNext(rng, cur)
			if !ok {
				break
			}
			cur = next
		}
		// Idle between trips; next trip starts wherever this one ended.
		sec += rng.ExpFloat64() * s.cfg.MeanIdleMinutes * 60
	}
	s.visits = buf
	if len(buf) == 0 {
		return nil
	}
	visits := make([]Visit, len(buf))
	copy(visits, buf)
	return visits
}

// pickNext draws the segment after cur by the weights of newSimTables.
// A dead end (no successor) ends the trip; a segment whose weights are
// all zero continues onto its first successor without a draw.
func (t *simTables) pickNext(rng *rand.Rand, cur roadnet.SegmentID) (roadnet.SegmentID, bool) {
	lo, hi := t.off[cur], t.off[cur+1]
	if lo == hi {
		return 0, false
	}
	if t.total[cur] == 0 {
		return t.succ[lo], true
	}
	r := rng.Float64() * t.total[cur]
	for i := lo; i < hi; i++ {
		w := t.weight[i]
		if w == 0 {
			continue
		}
		if r < w {
			return t.succ[i], true
		}
		r -= w
	}
	return t.succ[hi-1], true
}

// RawFromMatched synthesizes the raw GPS record stream a taxi's device
// would have produced for a matched trajectory: samples every interval
// along the segment shapes, with isotropic Gaussian position noise of the
// given sigma in metres. Used to exercise the map-matching stage.
// RawFromMatched needs absolute timestamps, so the caller supplies the
// day's midnight (e.g. Dataset.DayStart(mt.Day)).
func RawFromMatched(n *roadnet.Network, mt *MatchedTrajectory, dayStart time.Time, interval time.Duration, noiseMeters float64, seed int64) *Trajectory {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trajectory{Taxi: mt.Taxi, Day: mt.Day}
	if len(mt.Visits) == 0 {
		return tr
	}
	next := mt.Visits[0].Enter(dayStart)
	for _, v := range mt.Visits {
		seg := n.Segment(v.Segment)
		enter, exit := v.Enter(dayStart), v.Exit(dayStart)
		dur := exit.Sub(enter)
		if dur <= 0 {
			continue
		}
		for !next.After(exit) {
			if next.Before(enter) {
				next = enter
			}
			frac := float64(next.Sub(enter)) / float64(dur)
			pos := seg.Shape.PointAt(frac * seg.Length)
			pos = geo.Offset(pos, rng.NormFloat64()*noiseMeters, rng.NormFloat64()*noiseMeters)
			tr.Points = append(tr.Points, GPSPoint{Pos: pos, Time: next, Speed: float64(v.Speed)})
			next = next.Add(interval)
		}
	}
	return tr
}
