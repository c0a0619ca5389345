package traj

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streach/internal/geo"
	"streach/internal/roadnet"
)

// refSimulate, with the three helpers below it and refFactor, is the
// simulator as it was before its per-segment tables, compiled speed
// profile and reused visit buffer, kept verbatim but for the names: the
// reference Simulate must reproduce bit for bit.
func refSimulate(n *roadnet.Network, cfg SimConfig) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if cfg.Taxis <= 0 || cfg.Days <= 0 {
		return nil, fmt.Errorf("traj: need positive Taxis and Days, got %d and %d", cfg.Taxis, cfg.Days)
	}
	if n.NumSegments() == 0 {
		return nil, fmt.Errorf("traj: cannot simulate on an empty network")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-day speed multipliers.
	dayFactor := make([]float64, cfg.Days)
	for d := range dayFactor {
		dayFactor[d] = 1 + (rng.Float64()*2-1)*cfg.DaySpeedJitter
	}

	// Precompute each segment's distance to the city centre for the
	// route-choice attraction bias.
	center := n.Bounds().Center()
	centerDist := make([]float64, n.NumSegments())
	for i := 0; i < n.NumSegments(); i++ {
		centerDist[i] = geo.Distance(n.Segment(roadnet.SegmentID(i)).Midpoint(), center)
	}

	ds := &Dataset{BaseDate: cfg.BaseDate, Days: cfg.Days}
	for taxi := 0; taxi < cfg.Taxis; taxi++ {
		taxiJitter := 0.9 + rng.Float64()*0.2
		for day := 0; day < cfg.Days; day++ {
			mt := refSimulateTaxiDay(n, cfg, rng, centerDist, TaxiID(taxi), Day(day), dayFactor[day]*taxiJitter)
			if len(mt.Visits) > 0 {
				ds.Matched = append(ds.Matched, mt)
			}
		}
	}
	return ds, nil
}

// refSegmentSpeed returns the instantaneous speed on seg at secOfDay.
func refSegmentSpeed(n *roadnet.Network, profile SpeedProfile, seg roadnet.SegmentID, secOfDay, mult float64) float64 {
	base := n.Segment(seg).Class.FreeFlowSpeed()
	v := base * refFactor(profile, secOfDay) * mult
	if v < 0.5 {
		v = 0.5
	}
	return v
}

func refSimulateTaxiDay(n *roadnet.Network, cfg SimConfig, rng *rand.Rand, centerDist []float64, taxi TaxiID, day Day, mult float64) MatchedTrajectory {
	mt := MatchedTrajectory{Taxi: taxi, Day: day}
	// Shift start spreads taxis across the first hour of the window.
	sec := float64(cfg.ActiveStartSec) + rng.Float64()*3600
	end := float64(cfg.ActiveEndSec)
	cur := roadnet.SegmentID(rng.Intn(n.NumSegments()))

	for sec < end {
		tripDur := rng.ExpFloat64() * cfg.MeanTripMinutes * 60
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
			speed := refSegmentSpeed(n, cfg.Profile, cur, sec, mult) * noise
			dt := n.Segment(cur).Length / speed
			mt.Visits = append(mt.Visits, Visit{
				Segment: cur,
				EnterMs: int32(sec * 1000),
				ExitMs:  int32((sec + dt) * 1000),
				Speed:   float32(speed),
			})
			sec += dt
			next, ok := refPickNext(n, rng, cfg, centerDist, cur)
			if !ok {
				break
			}
			cur = next
		}
		// Idle between trips; next trip starts wherever this one ended.
		sec += rng.ExpFloat64() * cfg.MeanIdleMinutes * 60
	}
	return mt
}

// refPickNext chooses the next segment from cur's successors, weighted by
// free-flow speed so highways carry through-traffic, and by the centre
// attraction so the fleet concentrates downtown. U-turns onto the twin
// are only taken at dead ends.
func refPickNext(n *roadnet.Network, rng *rand.Rand, cfg SimConfig, centerDist []float64, cur roadnet.SegmentID) (roadnet.SegmentID, bool) {
	out := n.Outgoing(cur)
	if len(out) == 0 {
		return 0, false
	}
	rev := n.Segment(cur).Reverse
	var total float64
	weights := make([]float64, len(out))
	for i, s := range out {
		if s == rev && len(out) > 1 {
			continue
		}
		w := n.Segment(s).Class.FreeFlowSpeed()
		if centerDist[s] < centerDist[cur] {
			w *= 1 + cfg.CenterAttraction
		}
		weights[i] = w
		total += w
	}
	if total == 0 {
		return out[0], true
	}
	r := rng.Float64() * total
	for i, w := range weights {
		if w == 0 {
			continue
		}
		if r < w {
			return out[i], true
		}
		r -= w
	}
	return out[len(out)-1], true
}

func refFactor(p SpeedProfile, secOfDay float64) float64 {
	secOfDay = math.Mod(secOfDay, 86400)
	if secOfDay < 0 {
		secOfDay += 86400
	}
	f := 1.0
	for _, tr := range p.Troughs {
		// Evaluate the trough and its day-wrapped copies so a trough near
		// midnight affects both ends of the day.
		for _, c := range []float64{tr.CenterSec - 86400, tr.CenterSec, tr.CenterSec + 86400} {
			d := secOfDay - c
			f -= tr.Depth * math.Exp(-d*d/(2*tr.WidthSec*tr.WidthSec))
		}
	}
	if p.NightBoost > 0 {
		// Peak boost at 03:00, fading over ~3 hours.
		for _, c := range []float64{3*3600 - 86400, 3 * 3600, 3*3600 + 86400} {
			d := secOfDay - c
			f += p.NightBoost * math.Exp(-d*d/(2*10800.0*10800.0))
		}
	}
	if f < 0.05 {
		f = 0.05
	}
	if max := 1 + p.NightBoost; f > max {
		f = max
	}
	return f
}

// benchCity is the benchmark's 20x20 city (streach.BuildCity with the
// default city config at 20x20), rebuilt here to avoid an import cycle.
func benchCity(tb testing.TB) *roadnet.Network {
	tb.Helper()
	n, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin:        geo.Point{Lat: 22.45, Lng: 113.90},
		Rows:          20,
		Cols:          20,
		SpacingMeters: 1000,
		LocalFraction: 0.4,
		Seed:          1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if n, err = roadnet.Resegment(n, 500); err != nil {
		tb.Fatal(err)
	}
	return n
}

// benchSimConfig is the benchmark world's fleet: 500 taxis over 30 days,
// driving 06:00-12:00.
func benchSimConfig() SimConfig {
	return SimConfig{
		Taxis: 500, Days: 30, Seed: 2,
		Profile: DefaultSpeedProfile(), DaySpeedJitter: 0.15,
		ActiveStartSec: 6 * 3600, ActiveEndSec: 12 * 3600,
	}
}

// deadEndNetwork has every kind of exit pickNext treats specially: a
// two-way line A-B-C whose end at A can only be left by the U-turn, and
// one-way spurs C->D and B->E that end in segments with no successor.
func deadEndNetwork(t *testing.T) *roadnet.Network {
	t.Helper()
	b := roadnet.NewBuilder()
	p := geo.Point{Lat: 22.5, Lng: 114.0}
	a, bb, c := p, geo.Offset(p, 400, 0), geo.Offset(p, 800, 0)
	for _, r := range []struct {
		from, to geo.Point
		class    roadnet.RoadClass
		oneWay   bool
	}{
		{a, bb, roadnet.Primary, false},
		{bb, c, roadnet.Highway, false},
		{c, geo.Offset(c, 0, 300), roadnet.Secondary, true},
		{bb, geo.Offset(bb, 0, -500), roadnet.Primary, true},
	} {
		if _, err := b.AddRoad(geo.Polyline{r.from, r.to}, r.class, r.oneWay); err != nil {
			t.Fatal(err)
		}
	}
	n := b.Build()
	var uTurnOnly, deadEnds int
	for seg := 0; seg < n.NumSegments(); seg++ {
		id := roadnet.SegmentID(seg)
		out := n.Outgoing(id)
		switch {
		case len(out) == 0:
			deadEnds++
		case len(out) == 1 && out[0] == n.Segment(id).Reverse:
			uTurnOnly++
		}
	}
	if uTurnOnly == 0 || deadEnds == 0 {
		t.Fatalf("network has %d U-turn-only exits and %d dead ends, want both", uTurnOnly, deadEnds)
	}
	return n
}

// datasetDigest is the sha256 of ds as WriteDataset encodes it.
func datasetDigest(t *testing.T, ds *Dataset) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := WriteDataset(h, ds); err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// firstDifference names the first trajectory or visit where two datasets
// differ, for a failure message.
func firstDifference(a, b *Dataset) string {
	if len(a.Matched) != len(b.Matched) {
		return fmt.Sprintf("%d trajectories, reference %d", len(a.Matched), len(b.Matched))
	}
	for i := range a.Matched {
		x, y := &a.Matched[i], &b.Matched[i]
		if x.Taxi != y.Taxi || x.Day != y.Day || len(x.Visits) != len(y.Visits) {
			return fmt.Sprintf("trajectory %d: taxi %d day %d with %d visits, reference taxi %d day %d with %d",
				i, x.Taxi, x.Day, len(x.Visits), y.Taxi, y.Day, len(y.Visits))
		}
		for j := range x.Visits {
			if x.Visits[j] != y.Visits[j] {
				return fmt.Sprintf("trajectory %d visit %d: %+v, reference %+v", i, j, x.Visits[j], y.Visits[j])
			}
		}
	}
	return "the header"
}

// TestSimulateMatchesReference holds Simulate to refSimulate: the same
// WriteDataset bytes for each config, on networks with highways, one-way
// roads, dead ends and U-turn-only exits.
func TestSimulateMatchesReference(t *testing.T) {
	grid, deadEnds := testNetwork(t), deadEndNetwork(t)
	shift := func(c SimConfig, start, end int) SimConfig {
		c.ActiveStartSec, c.ActiveEndSec = start, end
		return c
	}
	small := DefaultSimConfig()
	small.Taxis, small.Days = 12, 6
	nightBoostOff := small
	nightBoostOff.Profile.NightBoost = 0
	flat := small
	flat.Profile = FlatSpeedProfile()
	noAttraction := small
	noAttraction.CenterAttraction = -1
	noJitter := small
	noJitter.DaySpeedJitter = 0
	wildJitter := small
	wildJitter.DaySpeedJitter = 0.9
	midnightDips := small
	midnightDips.Profile = SpeedProfile{
		Troughs: []Trough{
			{CenterSec: 600, Depth: 0.7, WidthSec: 2400},
			{CenterSec: 23.8 * 3600, Depth: 0.3, WidthSec: 9000},
		},
		NightBoost: 3,
	}
	fleet := DefaultSimConfig()
	fleet.Taxis = 40

	cases := []struct {
		name string
		net  *roadnet.Network
		cfg  SimConfig
	}{
		{"bench world", benchCity(t), benchSimConfig()},
		{"default config, 40 taxis", grid, fleet},
		{"night boost off", grid, nightBoostOff},
		{"flat profile", grid, flat},
		{"negative center attraction", grid, noAttraction},
		{"no day jitter", grid, noJitter},
		{"day jitter 0.9", grid, wildJitter},
		{"dead ends and U-turns", deadEnds, small},
		{"dead ends, flat, no attraction", deadEnds, func() SimConfig { c := flat; c.CenterAttraction = -1; return c }()},
		{"shift ending at midnight", grid, shift(small, 22*3600+1800, 86400)},
		{"shift from midnight", grid, shift(small, 0, 1800)},
		{"shift past midnight", grid, shift(small, 20*3600, 30*3600)},
		{"dips across midnight", grid, shift(midnightDips, 21*3600, 27*3600)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Simulate(c.net, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refSimulate(c.net, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Matched) == 0 {
				t.Fatal("the reference simulated no trajectory; the case compares nothing")
			}
			if datasetDigest(t, got) != datasetDigest(t, want) {
				t.Fatalf("dataset differs from the reference: %s", firstDifference(got, want))
			}
		})
	}
}

// TestSimTablesMatchReference checks every successor weight and every
// total of newSimTables bit for bit against the loop refPickNext runs per
// visit. A total summed in another order moves a draw's r by an ulp,
// which almost never changes a choice, so the simulated datasets alone
// would not show it.
func TestSimTablesMatchReference(t *testing.T) {
	reordered := 0
	for _, n := range []*roadnet.Network{testNetwork(t), benchCity(t), deadEndNetwork(t)} {
		center := n.Bounds().Center()
		centerDist := make([]float64, n.NumSegments())
		for i := range centerDist {
			centerDist[i] = geo.Distance(n.Segment(roadnet.SegmentID(i)).Midpoint(), center)
		}
		for _, attraction := range []float64{0, 0.6, 1.7} {
			tab := newSimTables(n, attraction)
			for i := range centerDist {
				cur := roadnet.SegmentID(i)
				out := n.Outgoing(cur)
				rev := n.Segment(cur).Reverse
				var total, backwards float64
				weights := make([]float64, len(out))
				for i, s := range out {
					if s == rev && len(out) > 1 {
						continue
					}
					w := n.Segment(s).Class.FreeFlowSpeed()
					if centerDist[s] < centerDist[cur] {
						w *= 1 + attraction
					}
					weights[i] = w
					total += w
				}
				for i := len(weights) - 1; i >= 0; i-- {
					backwards += weights[i]
				}
				if backwards != total {
					reordered++
				}
				lo, hi := tab.off[cur], tab.off[cur+1]
				if hi-lo != len(out) || math.Float64bits(tab.total[cur]) != math.Float64bits(total) {
					t.Fatalf("segment %d (attraction %v): %d successors totalling %v, reference %d totalling %v",
						cur, attraction, hi-lo, tab.total[cur], len(out), total)
				}
				for k, s := range out {
					if tab.succ[lo+k] != s || math.Float64bits(tab.weight[lo+k]) != math.Float64bits(weights[k]) {
						t.Fatalf("segment %d successor %d: %d weighing %v, reference %d weighing %v",
							cur, k, tab.succ[lo+k], tab.weight[lo+k], s, weights[k])
					}
				}
			}
		}
	}
	if reordered == 0 {
		t.Fatal("no total depends on the summation order; the check compares nothing")
	}
}

// factorProfiles are the profiles Factor is checked on: the default, one
// whose troughs sit across midnight with a large night boost, and one
// with a negative depth (a bump) and a trough far off the day.
func factorProfiles() []SpeedProfile {
	return []SpeedProfile{
		DefaultSpeedProfile(),
		{Troughs: []Trough{{CenterSec: 600, Depth: 0.7, WidthSec: 2400}, {CenterSec: 23.8 * 3600, Depth: 0.3, WidthSec: 9000}}, NightBoost: 3},
		{Troughs: []Trough{{CenterSec: 12 * 3600, Depth: -0.4, WidthSec: 1800}, {CenterSec: -2e5, Depth: 1.5, WidthSec: 3e4}}, NightBoost: 0.2},
	}
}

// TestFactorMatchesReference compares Factor's bits with the reference's
// across the day, just outside it, and at the points where terms start
// being skipped.
func TestFactorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i, p := range factorProfiles() {
		c := p.compile()
		secs := []float64{0, math.Copysign(0, -1), 86400, -1e-9, 86400 - 1e-9, 3e5, -3e5}
		for _, terms := range [][]gaussTerm{c.troughs, c.night} {
			for _, g := range terms {
				if g.cut > 0 && !math.IsInf(g.cut, 0) {
					d := math.Sqrt(g.cut)
					for _, s := range []float64{g.center - d, g.center + d} {
						secs = append(secs, math.Nextafter(s, math.Inf(-1)), s, math.Nextafter(s, math.Inf(1)))
					}
				}
			}
		}
		for j := 0; j < 200000; j++ {
			secs = append(secs, rng.Float64()*1.2*86400-0.1*86400)
		}
		for _, s := range secs {
			if got, want := p.Factor(s), refFactor(p, s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("profile %d at %v: Factor %v (%#x), reference %v (%#x)", i, s, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// FuzzSpeedProfileFactor holds Factor to the reference, bit for bit, for
// arbitrary troughs (up to two), night boosts and times of day.
func FuzzSpeedProfileFactor(f *testing.F) {
	for _, p := range factorProfiles() {
		tr := append(p.Troughs, Trough{}, Trough{})
		f.Add(uint8(len(p.Troughs)), tr[0].CenterSec, tr[0].Depth, tr[0].WidthSec, tr[1].CenterSec, tr[1].Depth, tr[1].WidthSec, p.NightBoost, 8.25*3600)
	}
	f.Add(uint8(1), 0.0, 1e-17, 1e-300, 0.0, 0.0, 0.0, 1e-30, 86399.5)
	f.Add(uint8(2), math.Inf(1), 0.5, math.Inf(1), 43200.0, math.NaN(), 0.0, math.MaxFloat64, -1e300)
	f.Fuzz(func(t *testing.T, n uint8, c0, d0, w0, c1, d1, w1, night, sec float64) {
		p := SpeedProfile{Troughs: []Trough{{c0, d0, w0}, {c1, d1, w1}}[:n%3], NightBoost: night}
		if got, want := p.Factor(sec), refFactor(p, sec); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v at %v: Factor %v (%#x), reference %v (%#x)", p, sec, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// BenchmarkSimulate times one simulation of a fifth of the benchmark
// world's fleet (100 taxis, 30 days, 06:00-12:00) per iteration.
func BenchmarkSimulate(b *testing.B) {
	n := benchCity(b)
	cfg := benchSimConfig()
	cfg.Taxis = 100
	var visits int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := Simulate(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		visits = ds.Stats().Visits
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(visits), "ns/visit")
}
