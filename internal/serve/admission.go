package serve

import (
	"sync"
	"time"
)

// Adaptive admission: an AIMD concurrency limiter. The limit starts at
// Config.MaxInFlight (the ceiling, a quarter of which is the floor) and
// adapts to the engine's observed behaviour: a request that blows (or
// gets close to) its deadline multiplies the limit down, a request that
// finishes with comfortable headroom adds a fractional slot back — the
// classic AIMD shape that converges on the concurrency the engine can
// actually sustain within its deadlines.
//
// Occupancy of the current limit drives a two-rung brownout ladder,
// shedding the cheapest work first:
//
//	occupancy ≥ 0.55: shed prefetch/warm background work
//	occupancy = 1:    reject with 429 and an honest Retry-After
//	                  derived from the limiter state
const (
	brownoutShedOcc = 0.55

	// decreaseEvery rate-limits multiplicative decreases so one burst of
	// concurrent deadline failures counts as one congestion signal, not
	// a collapse to the floor.
	decreaseEvery = 100 * time.Millisecond
)

// aimdLimiter is the adaptive admission gate. All methods are safe for
// concurrent use.
type aimdLimiter struct {
	mu           sync.Mutex
	limit        float64 // current concurrency limit, in [min, max]
	min, max     float64
	inflight     int
	ewmaNS       float64 // EWMA of observed request latency
	lastDecrease time.Time
}

// newLimiter returns a limiter admitting up to max requests, whose limit
// overload can shrink to max/4 (at least 1) but never below.
func newLimiter(max int) *aimdLimiter {
	min := max / 4
	if min < 1 {
		min = 1
	}
	return &aimdLimiter{limit: float64(max), min: float64(min), max: float64(max)}
}

// admit claims a slot. shed reports that the request enters under the
// first brownout rung, so the background work it would start is shed;
// !ok means the limit is full and the request must be rejected.
func (l *aimdLimiter) admit() (ok, shed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if float64(l.inflight+1) > l.limit {
		return false, false
	}
	l.inflight++
	return true, float64(l.inflight)/l.limit >= brownoutShedOcc
}

// release returns the slot and feeds the request's outcome back into
// the limit: a deadline failure (or latency past 3/4 of the deadline)
// is a congestion signal and multiplies the limit down; a completion
// under half the deadline adds 1/limit back (one whole slot per limit's
// worth of comfortable completions).
func (l *aimdLimiter) release(lat, deadline time.Duration, deadlineHit bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inflight--
	if l.ewmaNS == 0 {
		l.ewmaNS = float64(lat)
	} else {
		l.ewmaNS = 0.8*l.ewmaNS + 0.2*float64(lat)
	}
	if deadline <= 0 {
		return
	}
	headroom := float64(lat) / float64(deadline)
	switch {
	case deadlineHit || headroom >= 0.75:
		if time.Since(l.lastDecrease) >= decreaseEvery {
			l.limit *= 0.7
			if l.limit < l.min {
				l.limit = l.min
			}
			l.lastDecrease = time.Now()
		}
	case headroom <= 0.5:
		l.limit += 1 / l.limit
		if l.limit > l.max {
			l.limit = l.max
		}
	}
}

// releaseIdle returns the slot without latency feedback (legacy acquire
// paths and callers that never ran a query).
func (l *aimdLimiter) releaseIdle() {
	l.mu.Lock()
	l.inflight--
	l.mu.Unlock()
}

// snapshot reports the current limit and occupancy for metrics.
func (l *aimdLimiter) snapshot() (limit float64, inflight int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit, l.inflight
}

// retryAfter derives an honest 429 Retry-After from the limiter state:
// with every slot busy, one slot frees per average latency per limit's
// worth of work, so a full occupancy's drain time is about one EWMA
// latency; deeper overload (inflight pinned at a shrunken limit) scales
// it up. Clamped to [1s, 30s] — the header has second granularity.
func (l *aimdLimiter) retryAfter() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := time.Second
	if l.ewmaNS > 0 && l.limit > 0 {
		occ := float64(l.inflight) / l.limit
		if occ < 1 {
			occ = 1
		}
		d = time.Duration(l.ewmaNS * occ)
	}
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	// Round up to whole seconds: Retry-After carries integer seconds and
	// rounding down would invite clients back early.
	return (d + time.Second - 1) / time.Second * time.Second
}
