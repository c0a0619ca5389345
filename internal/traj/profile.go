package traj

import "math"

// SpeedProfile maps a time of day to a congestion multiplier in (0, 1].
// The reachability results in the paper's Fig 4.5/4.6 depend on traffic
// slowing down in rush hours; the default profile reproduces that shape
// with morning (~07:30) and evening (~18:00) congestion troughs.
type SpeedProfile struct {
	// Troughs are the congested periods.
	Troughs []Trough
	// NightBoost adds free-flow headroom in the small hours.
	NightBoost float64
}

// Trough is one congestion dip: at CenterSec the multiplier drops by
// Depth, decaying as a Gaussian with the given width.
type Trough struct {
	CenterSec float64 // seconds since midnight
	Depth     float64 // in (0,1): 0.55 means speeds drop to 45% at the centre
	WidthSec  float64 // Gaussian sigma
}

// DefaultSpeedProfile models a metropolis with two rush hours.
func DefaultSpeedProfile() SpeedProfile {
	return SpeedProfile{
		Troughs: []Trough{
			{CenterSec: 7.5 * 3600, Depth: 0.55, WidthSec: 4500},
			{CenterSec: 18 * 3600, Depth: 0.60, WidthSec: 5400},
		},
		NightBoost: 0.10,
	}
}

// FlatSpeedProfile always returns 1.0; used by tests that need
// time-invariant behaviour.
func FlatSpeedProfile() SpeedProfile { return SpeedProfile{} }

// Factor returns the congestion multiplier at secOfDay seconds after
// midnight. The result is clamped to [0.05, 1+NightBoost].
func (p SpeedProfile) Factor(secOfDay float64) float64 {
	c := p.compile()
	return c.factor(secOfDay)
}

// nightWidth2 is 2σ² of the night boost, whose Gaussian has σ = 3 h.
const nightWidth2 = 2 * 10800.0 * 10800.0

// gaussTerm is one Gaussian summand of a compiled profile: amp·exp(-d²/twoW2)
// at distance d from center. Each trough and the night boost contribute
// three, at their centre and its copies a day earlier and later, so a dip
// near midnight affects both ends of the day.
type gaussTerm struct {
	center, twoW2, amp float64
	// cut is the d² past which the term is below 2^-57 (see cutoff).
	cut float64
}

// compiledProfile is a SpeedProfile flattened for per-visit evaluation.
// Trough terms are subtracted from 1 in order, then night terms added;
// that order fixes how every result rounds.
type compiledProfile struct {
	troughs, night []gaussTerm
	max            float64 // 1 + NightBoost
}

func (p SpeedProfile) compile() compiledProfile {
	c := compiledProfile{troughs: make([]gaussTerm, 0, 3*len(p.Troughs)), max: 1 + p.NightBoost}
	for _, tr := range p.Troughs {
		twoW2 := 2 * tr.WidthSec * tr.WidthSec
		for _, center := range []float64{tr.CenterSec - 86400, tr.CenterSec, tr.CenterSec + 86400} {
			c.troughs = append(c.troughs, gaussTerm{center: center, twoW2: twoW2, amp: tr.Depth, cut: cutoff(tr.Depth, twoW2)})
		}
	}
	if p.NightBoost > 0 {
		// Peak boost at 03:00, fading over ~3 hours.
		for _, center := range []float64{3*3600 - 86400, 3 * 3600, 3*3600 + 86400} {
			c.night = append(c.night, gaussTerm{center: center, twoW2: nightWidth2, amp: p.NightBoost, cut: cutoff(p.NightBoost, nightWidth2)})
		}
	}
	return c
}

// cutoff returns the d² past which |amp·exp(-d²/twoW2)| < 2^-58 exactly,
// so the term as computed (a few ulps off) is below 2^-57. It returns -1
// (always past) when |amp| itself is that small, and +Inf (never past)
// when amp or twoW2 is not a finite positive scale, where a term could be
// NaN or large whatever d is.
func cutoff(amp, twoW2 float64) float64 {
	amp = math.Abs(amp)
	if !(twoW2 > 0 && twoW2 <= math.MaxFloat64 && amp <= math.MaxFloat64) {
		return math.Inf(1)
	}
	if amp <= 0x1p-58 {
		return -1
	}
	return twoW2 * math.Log(amp*0x1p58)
}

// negligible reports whether a term with d² past its cut-off cannot move
// f: with |f| ≥ 1/4 the term is below a quarter ulp of f, so f ± term
// rounds back to f, and skipping it leaves f and everything computed from
// it bit-identical. NaNs compare false and are always evaluated.
func negligible(f, d2, cut float64) bool {
	return d2 > cut && (f >= 0.25 || f <= -0.25)
}

func (c *compiledProfile) factor(secOfDay float64) float64 {
	if !(secOfDay >= 0 && secOfDay < 86400) { // math.Mod is the identity there
		secOfDay = math.Mod(secOfDay, 86400)
		if secOfDay < 0 {
			secOfDay += 86400
		}
	}
	f := 1.0
	for i := range c.troughs {
		t := &c.troughs[i]
		d := secOfDay - t.center
		if negligible(f, d*d, t.cut) {
			continue
		}
		f -= t.amp * math.Exp(-d*d/t.twoW2)
	}
	for i := range c.night {
		t := &c.night[i]
		d := secOfDay - t.center
		if negligible(f, d*d, t.cut) {
			continue
		}
		f += t.amp * math.Exp(-d*d/t.twoW2)
	}
	if f < 0.05 {
		f = 0.05
	}
	if f > c.max {
		f = c.max
	}
	return f
}
