package traj

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"streach/internal/geo"
	"streach/internal/roadnet"
)

func testNetwork(t *testing.T) *roadnet.Network {
	t.Helper()
	n, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin:        geo.Point{Lat: 22.5, Lng: 114.0},
		Rows:          6,
		Cols:          6,
		SpacingMeters: 800,
		LocalFraction: 0.4,
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func smallSim(t *testing.T, n *roadnet.Network) *Dataset {
	t.Helper()
	ds, err := Simulate(n, SimConfig{
		Taxis:          10,
		Days:           5,
		Profile:        DefaultSpeedProfile(),
		Seed:           3,
		ActiveStartSec: 8 * 3600,
		ActiveEndSec:   12 * 3600,
		DaySpeedJitter: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSimulateProducesValidTrajectories(t *testing.T) {
	n := testNetwork(t)
	ds := smallSim(t, n)
	if len(ds.Matched) == 0 {
		t.Fatal("no trajectories simulated")
	}
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		for j, v := range mt.Visits {
			if v.ExitMs < v.EnterMs {
				t.Fatalf("taxi %d day %d visit %d exits before entering", mt.Taxi, mt.Day, j)
			}
			if j > 0 && v.EnterMs < mt.Visits[j-1].EnterMs {
				t.Fatalf("taxi %d day %d visit %d out of order", mt.Taxi, mt.Day, j)
			}
		}
		for _, v := range mt.Visits {
			if v.Segment < 0 || int(v.Segment) >= n.NumSegments() {
				t.Fatalf("visit references segment %d outside network", v.Segment)
			}
			if v.Speed <= 0 {
				t.Fatalf("non-positive speed %v", v.Speed)
			}
		}
	}
}

func TestSimulateVisitsAreConnected(t *testing.T) {
	n := testNetwork(t)
	ds := smallSim(t, n)
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		for j := 1; j < len(mt.Visits); j++ {
			prev, cur := mt.Visits[j-1], mt.Visits[j]
			// Either consecutive on the network or a new trip after idling.
			gap := cur.EnterMs - prev.ExitMs
			if gap > 1 {
				continue // idle gap between trips
			}
			connected := false
			for _, s := range n.Outgoing(prev.Segment) {
				if s == cur.Segment {
					connected = true
					break
				}
			}
			if !connected {
				t.Fatalf("taxi %d day %d: visit %d jumps from segment %d to non-adjacent %d",
					mt.Taxi, mt.Day, j, prev.Segment, cur.Segment)
			}
		}
	}
}

func TestSimulateRespectsActiveWindow(t *testing.T) {
	n := testNetwork(t)
	ds := smallSim(t, n)
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		for _, v := range mt.Visits {
			sec := v.EnterSec()
			if sec < 8*3600-1 {
				t.Fatalf("visit entered at %v s, before the active window", sec)
			}
			// A trip may run a little past the window end but not wildly.
			if sec > 13*3600 {
				t.Fatalf("visit entered at %v s, far past the active window", sec)
			}
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	n := testNetwork(t)
	a := smallSim(t, n)
	b := smallSim(t, n)
	if len(a.Matched) != len(b.Matched) {
		t.Fatal("same seed should give identical datasets")
	}
	for i := range a.Matched {
		if len(a.Matched[i].Visits) != len(b.Matched[i].Visits) {
			t.Fatalf("trajectory %d differs", i)
		}
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	n := testNetwork(t)
	if _, err := Simulate(n, SimConfig{Taxis: 0, Days: 5}); err == nil {
		t.Fatal("zero taxis should error")
	}
	if _, err := Simulate(n, SimConfig{Taxis: 5, Days: 0}); err == nil {
		t.Fatal("zero days should error")
	}
	empty := roadnet.NewBuilder().Build()
	if _, err := Simulate(empty, SimConfig{Taxis: 1, Days: 1}); err == nil {
		t.Fatal("empty network should error")
	}
}

// TestSimulateRejectsNonFinite checks that a config whose profile or
// rates would turn speeds into NaN (visits with Speed NaN and ExitMs
// -2147483648) is refused before anything is drawn, naming the field.
func TestSimulateRejectsNonFinite(t *testing.T) {
	n := testNetwork(t)
	nan, inf := math.NaN(), math.Inf(1)
	trough := func(f func(tr *Trough)) func(c *SimConfig) {
		return func(c *SimConfig) {
			c.Profile = DefaultSpeedProfile()
			f(&c.Profile.Troughs[0])
		}
	}
	cases := []struct {
		field string
		edit  func(c *SimConfig)
	}{
		{"Profile.Troughs[0].Depth", trough(func(tr *Trough) { tr.Depth = nan })},
		{"Profile.Troughs[0].Depth", trough(func(tr *Trough) { tr.Depth = -inf })},
		{"Profile.Troughs[0].CenterSec", trough(func(tr *Trough) { tr.CenterSec = inf })},
		{"Profile.Troughs[0].WidthSec", trough(func(tr *Trough) { tr.WidthSec = nan })},
		{"Profile.Troughs[0].WidthSec", trough(func(tr *Trough) { tr.WidthSec = inf })},
		{"Profile.Troughs[0].WidthSec", trough(func(tr *Trough) { tr.WidthSec = 0 })},
		{"Profile.Troughs[0].WidthSec", trough(func(tr *Trough) { tr.WidthSec = -4500 })},
		{"Profile.NightBoost", func(c *SimConfig) { c.Profile.NightBoost = nan }},
		{"Profile.NightBoost", func(c *SimConfig) { c.Profile.NightBoost = inf }},
		{"MeanTripMinutes", func(c *SimConfig) { c.MeanTripMinutes = nan }},
		{"MeanTripMinutes", func(c *SimConfig) { c.MeanTripMinutes = -inf }},
		{"MeanIdleMinutes", func(c *SimConfig) { c.MeanIdleMinutes = inf }},
		{"DaySpeedJitter", func(c *SimConfig) { c.DaySpeedJitter = nan }},
		{"CenterAttraction", func(c *SimConfig) { c.CenterAttraction = -inf }},
	}
	for _, c := range cases {
		cfg := DefaultSimConfig()
		cfg.Taxis, cfg.Days = 2, 2
		c.edit(&cfg)
		ds, err := Simulate(n, cfg)
		if err == nil {
			t.Fatalf("%s: accepted, simulated %d trajectories", c.field, len(ds.Matched))
		}
		if !strings.Contains(err.Error(), c.field+" is") {
			t.Fatalf("%s: error %q does not name the field", c.field, err)
		}
	}
	bench := benchSimConfig()
	for name, cfg := range map[string]SimConfig{
		"DefaultSimConfig": DefaultSimConfig(),
		"flat profile":     {Taxis: 1, Days: 1, Profile: FlatSpeedProfile()},
		"bench world":      bench,
	} {
		if err := cfg.validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestSimulateRejectsTooManyDays checks the day range: Day is an int16,
// so day 32767 is the last one a dataset can hold, and Days 40000 would
// emit day -25537.
func TestSimulateRejectsTooManyDays(t *testing.T) {
	n := testNetwork(t)
	cfg := SimConfig{Taxis: 1, Days: 40000, Profile: FlatSpeedProfile(), ActiveEndSec: 3601} // every shift starts in the window
	if _, err := Simulate(n, cfg); err == nil || !strings.Contains(err.Error(), "Days is 40000") {
		t.Fatalf("Days 40000: got error %v", err)
	}
	cfg.Days = 1 << 15
	ds, err := Simulate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if last := ds.Matched[len(ds.Matched)-1].Day; last != 1<<15-1 {
		t.Fatalf("last day %d, want %d", last, 1<<15-1)
	}
}

// TestSimulateRejectsOverflowingShift: a shift whose millisecond times
// do not fit a visit's int32 is refused, naming the field; the one at
// 3 000 000 s emitted visits entering and exiting at -2147483648 ms. A
// shift near the bound still simulates, with every visit valid.
func TestSimulateRejectsOverflowingShift(t *testing.T) {
	n := testNetwork(t)
	for _, tc := range []struct {
		field      string
		start, end int
	}{
		{"ActiveStartSec", 3_000_000, 3_000_600},
		{"ActiveEndSec", 0, maxShiftSec + 1},
		{"ActiveStartSec", -maxShiftSec - 1, 3600},
	} {
		cfg := SimConfig{Taxis: 4, Days: 2, Profile: DefaultSpeedProfile(), ActiveStartSec: tc.start, ActiveEndSec: tc.end}
		ds, err := Simulate(n, cfg)
		if err == nil {
			t.Fatalf("shift %d-%d s: accepted, simulated %d trajectories", tc.start, tc.end, len(ds.Matched))
		}
		if !strings.Contains(err.Error(), tc.field+" is") {
			t.Fatalf("shift %d-%d s: error %q does not name %s", tc.start, tc.end, err, tc.field)
		}
	}
	cfg := SimConfig{Taxis: 4, Days: 2, Profile: DefaultSpeedProfile(), ActiveStartSec: maxShiftSec - 7200, ActiveEndSec: maxShiftSec}
	ds, err := Simulate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Matched) == 0 {
		t.Fatal("a shift near the bound simulated nothing")
	}
	for i := range ds.Matched {
		if err := ds.CheckTrajectory(i, n.NumSegments()); err != nil {
			t.Fatal(err)
		}
	}
	for _, mt := range ds.Matched {
		for _, v := range mt.Visits {
			if v.EnterMs < (maxShiftSec-7200)*1000 {
				t.Fatalf("visit entering at %d ms, before the shift", v.EnterMs)
			}
		}
	}
}

func TestRushHourSlowdown(t *testing.T) {
	p := DefaultSpeedProfile()
	rush := p.Factor(7.5 * 3600)
	evening := p.Factor(18 * 3600)
	night := p.Factor(3 * 3600)
	noon := p.Factor(12.5 * 3600)
	if rush >= noon || evening >= noon {
		t.Fatalf("rush hours should be slower than midday: rush=%v evening=%v noon=%v", rush, evening, noon)
	}
	if night <= noon {
		t.Fatalf("night should be at least as fast as midday: night=%v noon=%v", night, noon)
	}
	if rush < 0.05 || rush > 1 {
		t.Fatalf("rush factor out of range: %v", rush)
	}
}

func TestSpeedProfileWrapsMidnight(t *testing.T) {
	p := DefaultSpeedProfile()
	if math.Abs(p.Factor(0)-p.Factor(86400)) > 1e-9 {
		t.Fatal("profile should be periodic over the day")
	}
	if math.Abs(p.Factor(-3600)-p.Factor(82800)) > 1e-9 {
		t.Fatal("negative offsets should wrap")
	}
}

func TestFlatProfileIsOne(t *testing.T) {
	p := FlatSpeedProfile()
	for _, s := range []float64{0, 3600, 7.5 * 3600, 43200, 86399} {
		if p.Factor(s) != 1 {
			t.Fatalf("flat profile at %v = %v, want 1", s, p.Factor(s))
		}
	}
}

func TestSimulatedSpeedsFollowProfile(t *testing.T) {
	n := testNetwork(t)
	// Full-day sim with a strong rush-hour dip and no day jitter.
	ds, err := Simulate(n, SimConfig{
		Taxis: 30, Days: 2, Profile: DefaultSpeedProfile(), Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mean speed of primary-class visits at rush hour vs midday.
	avg := func(fromSec, toSec float64) float64 {
		var sum float64
		var cnt int
		for i := range ds.Matched {
			mt := &ds.Matched[i]
			for _, v := range mt.Visits {
				if n.Segment(v.Segment).Class != roadnet.Primary {
					continue
				}
				sec := v.EnterSec()
				if sec >= fromSec && sec < toSec {
					sum += float64(v.Speed)
					cnt++
				}
			}
		}
		if cnt == 0 {
			t.Fatalf("no visits between %v and %v", fromSec, toSec)
		}
		return sum / float64(cnt)
	}
	rush := avg(7*3600, 8*3600)
	midday := avg(12*3600, 13*3600)
	if rush >= midday*0.85 {
		t.Fatalf("rush-hour speeds (%v) should be well below midday (%v)", rush, midday)
	}
}

func TestCenterAttractionConcentratesTraffic(t *testing.T) {
	n := testNetwork(t)
	center := n.Bounds().Center()
	visitsNearCenter := func(attraction float64) int {
		ds, err := Simulate(n, SimConfig{
			Taxis: 20, Days: 2, Profile: FlatSpeedProfile(), Seed: 77,
			CenterAttraction: attraction,
		})
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for i := range ds.Matched {
			for _, v := range ds.Matched[i].Visits {
				if geo.Distance(n.Segment(v.Segment).Midpoint(), center) < 1200 {
					count++
				}
			}
		}
		return count
	}
	weak := visitsNearCenter(0.01) // effectively off (0 would default to 0.6)
	strong := visitsNearCenter(1.5)
	if strong <= weak {
		t.Fatalf("attraction should concentrate traffic downtown: weak=%d strong=%d", weak, strong)
	}
}

func TestRawFromMatched(t *testing.T) {
	n := testNetwork(t)
	ds := smallSim(t, n)
	mt := &ds.Matched[0]
	raw := RawFromMatched(n, mt, ds.DayStart(mt.Day), 30*time.Second, 15, 99)
	if err := raw.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(raw.Points) < 5 {
		t.Fatalf("raw trajectory has only %d points", len(raw.Points))
	}
	// Every raw point should be near its source segment (noise sigma 15 m).
	for _, p := range raw.Points {
		_, d, _, ok := n.SnapPoint(p.Pos)
		if !ok {
			t.Fatal("snap failed")
		}
		if d > 120 {
			t.Fatalf("raw point %v is %v m from any road", p.Pos, d)
		}
	}
	// Sampling interval should be respected.
	for i := 1; i < len(raw.Points); i++ {
		dt := raw.Points[i].Time.Sub(raw.Points[i-1].Time)
		if dt < 0 {
			t.Fatal("raw points out of order")
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	n := testNetwork(t)
	ds := smallSim(t, n)
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Days != ds.Days || !got.BaseDate.Equal(ds.BaseDate) {
		t.Fatalf("header mismatch: %v/%v vs %v/%v", got.Days, got.BaseDate, ds.Days, ds.BaseDate)
	}
	if len(got.Matched) != len(ds.Matched) {
		t.Fatalf("trajectory count %d, want %d", len(got.Matched), len(ds.Matched))
	}
	for i := range ds.Matched {
		a, b := &ds.Matched[i], &got.Matched[i]
		if a.Taxi != b.Taxi || a.Day != b.Day || len(a.Visits) != len(b.Visits) {
			t.Fatalf("trajectory %d header mismatch", i)
		}
		for j := range a.Visits {
			va, vb := a.Visits[j], b.Visits[j]
			if va.Segment != vb.Segment {
				t.Fatalf("traj %d visit %d segment mismatch", i, j)
			}
			if va.EnterMs != vb.EnterMs || va.ExitMs != vb.ExitMs {
				t.Fatalf("traj %d visit %d time mismatch", i, j)
			}
			if math.Abs(float64(va.Speed)-float64(vb.Speed)) > 0.01 {
				t.Fatalf("traj %d visit %d speed mismatch: %v vs %v", i, j, va.Speed, vb.Speed)
			}
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := ReadDataset(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Fatal("bad magic should error")
	}
	if _, err := ReadDataset(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should error")
	}
	// Truncated valid stream.
	n := testNetwork(t)
	ds := smallSim(t, n)
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadDataset(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input should error")
	}
}

func TestDatasetStats(t *testing.T) {
	n := testNetwork(t)
	ds := smallSim(t, n)
	st := ds.Stats()
	if st.Taxis != 10 {
		t.Fatalf("Taxis = %d, want 10", st.Taxis)
	}
	if st.Days != 5 {
		t.Fatalf("Days = %d, want 5", st.Days)
	}
	if st.Trajectories == 0 || st.Visits == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTrajectoryValidateCatchesDisorder(t *testing.T) {
	now := time.Now()
	tr := &Trajectory{Points: []GPSPoint{
		{Pos: geo.Point{Lat: 22, Lng: 114}, Time: now},
		{Pos: geo.Point{Lat: 22, Lng: 114}, Time: now.Add(-time.Minute)},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("out-of-order trajectory should fail validation")
	}
	bad := &Trajectory{Points: []GPSPoint{{Pos: geo.Point{Lat: 999, Lng: 0}, Time: now}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid position should fail validation")
	}
}

func TestSecondsOfDay(t *testing.T) {
	base := time.Date(2014, 11, 1, 0, 0, 0, 0, time.UTC)
	at := base.Add(26*time.Hour + 30*time.Minute) // day 1, 02:30
	if got := SecondsOfDay(base, at); got != 2*3600+1800 {
		t.Fatalf("SecondsOfDay = %d, want %d", got, 2*3600+1800)
	}
}

// TestCheckTrajectory: the builders' trust boundary refuses each bad field
// with an error naming the trajectory and the visit, and keeps what the
// index builders accept — visits entering before midnight or leaving
// after the next one, and a speed of zero.
func TestCheckTrajectory(t *testing.T) {
	const segs = 10
	good := Visit{Segment: 2, EnterMs: 1000, ExitMs: 2000, Speed: 7}
	for _, tc := range []struct {
		name string
		mt   MatchedTrajectory
		want string
	}{
		{"taxi past MaxTaxis", MatchedTrajectory{Taxi: MaxTaxis, Visits: []Visit{good}}, "trajectory 1: taxi 32768 outside [0, 32768)"},
		{"negative taxi", MatchedTrajectory{Taxi: -1, Visits: []Visit{good}}, "trajectory 1: taxi -1 outside"},
		{"day past the dataset", MatchedTrajectory{Day: 2, Visits: []Visit{good}}, "trajectory 1: day 2 outside [0, 2)"},
		{"segment past the network", MatchedTrajectory{Visits: []Visit{good, {Segment: segs, ExitMs: 1}}}, "trajectory 1 visit 1: segment 10 outside [0, 10)"},
		{"negative segment", MatchedTrajectory{Visits: []Visit{{Segment: -1}}}, "trajectory 1 visit 0: segment -1 outside"},
		{"exit before entry", MatchedTrajectory{Visits: []Visit{good, {EnterMs: 10, ExitMs: -5, Speed: 3}}}, "trajectory 1 visit 1: exit -5 ms before entry 10 ms"},
		{"NaN speed", MatchedTrajectory{Visits: []Visit{{Speed: float32(math.NaN())}}}, "trajectory 1 visit 0: speed NaN m/s"},
		{"+Inf speed", MatchedTrajectory{Visits: []Visit{{Speed: float32(math.Inf(1))}}}, "trajectory 1 visit 0: speed +Inf m/s"},
		{"-Inf speed", MatchedTrajectory{Visits: []Visit{{Speed: float32(math.Inf(-1))}}}, "trajectory 1 visit 0: speed -Inf m/s"},
		{"negative speed", MatchedTrajectory{Visits: []Visit{{Speed: -0.5}}}, "trajectory 1 visit 0: speed -0.5 m/s"},
	} {
		ds := &Dataset{Days: 2, Matched: []MatchedTrajectory{{Taxi: 3, Visits: []Visit{good}}, tc.mt}}
		if err := ds.CheckTrajectory(1, segs); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
	ds := &Dataset{Days: 2, Matched: []MatchedTrajectory{{Taxi: MaxTaxis - 1, Day: 1, Visits: []Visit{
		{Segment: 0, EnterMs: -60_000, ExitMs: 1000, Speed: 0},
		{Segment: segs - 1, EnterMs: 86_000_000, ExitMs: 87_000_000, Speed: float32(math.Copysign(0, -1))},
		{Segment: 1, EnterMs: 5, ExitMs: 5, Speed: math.MaxFloat32},
	}}}}
	if err := ds.CheckTrajectory(0, segs); err != nil {
		t.Fatal(err)
	}
}
