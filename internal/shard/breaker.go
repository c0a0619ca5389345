package shard

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Per-shard circuit breakers: the overload-protection layer between the
// scatter-gather executor and a sick shard. A shard whose recent calls
// keep failing (errors, panics, budget expiries) trips its breaker open;
// while open, scatter and gather short-circuit the shard into the
// existing ShardError path — degraded coverage under partial-results,
// an immediate typed failure otherwise — instead of paying the budget
// timeout on every query. After a cooldown the breaker half-opens and
// admits exactly one probe call; the probe's outcome decides between
// closing (healthy again) and re-opening for another cooldown.

// ErrBreakerOpen is the cause on a ShardError for a shard that was
// short-circuited by its open circuit breaker rather than called.
var ErrBreakerOpen = errors.New("shard: circuit breaker open")

// BreakerConfig tunes the per-shard circuit breakers. The zero value
// leaves breakers disabled (every call passes through); enabling with
// zero fields uses the defaults noted per field.
type BreakerConfig struct {
	// Enabled turns the breaker state machine on.
	Enabled bool
	// Window is the rolling outcome window per shard (default 16).
	Window int
	// FailureRatio is the failure fraction over the window that trips
	// the breaker open (default 0.5).
	FailureRatio float64
	// MinSamples is the minimum outcomes in the window before the ratio
	// is trusted (default 4).
	MinSamples int
	// Cooldown is how long an open breaker rejects before half-opening
	// to probe (default 2s).
	Cooldown time.Duration
}

func (cfg BreakerConfig) withDefaults() BreakerConfig {
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.FailureRatio <= 0 {
		cfg.FailureRatio = 0.5
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 4
	}
	if cfg.MinSamples > cfg.Window {
		cfg.MinSamples = cfg.Window
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	return cfg
}

// BreakerState is one breaker's position in the state machine.
type BreakerState int

const (
	// BreakerClosed: calls pass through; outcomes feed the window.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: one probe call is in (or awaiting) flight; all
	// other calls short-circuit.
	BreakerHalfOpen
	// BreakerOpen: every call short-circuits until the cooldown expires.
	BreakerOpen
)

// String names the state for health probes and metrics labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half_open"
	case BreakerOpen:
		return "open"
	}
	return "?"
}

// breaker is one shard's state machine plus rolling ok/fail window.
type breaker struct {
	mu       sync.Mutex
	state    BreakerState
	ring     []bool // true: the call succeeded
	idx, n   int
	openedAt time.Time
	probing  bool // a half-open probe slot is granted and unresolved
	opens    atomic.Int64
	shorts   atomic.Int64
}

func (b *breaker) reset() {
	b.mu.Lock()
	b.state = BreakerClosed
	b.idx, b.n = 0, 0
	b.probing = false
	b.mu.Unlock()
}

// breakerTable holds every shard's breaker, shared by all cluster views
// like the fault and health tables.
type breakerTable struct {
	mu   sync.Mutex // guards cfg
	cfg  BreakerConfig
	brks []*breaker
}

func newBreakerTable(k int, cfg BreakerConfig) *breakerTable {
	t := &breakerTable{cfg: cfg.withDefaults(), brks: make([]*breaker, k)}
	for i := range t.brks {
		t.brks[i] = &breaker{}
	}
	return t
}

func (t *breakerTable) config() BreakerConfig {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cfg
}

// configure swaps the config and resets every breaker to closed with an
// empty window — old outcomes were judged under the old thresholds.
func (t *breakerTable) configure(cfg BreakerConfig) {
	cfg = cfg.withDefaults()
	t.mu.Lock()
	t.cfg = cfg
	t.mu.Unlock()
	for _, b := range t.brks {
		b.reset()
	}
}

// allow reports whether a call to the shard may proceed. probe marks the
// single half-open trial call; its outcome (record) or abandonment
// (cancel) must be reported to free the slot.
func (t *breakerTable) allow(sh int) (ok, probe bool) {
	cfg := t.config()
	if !cfg.Enabled {
		return true, false
	}
	b := t.brks[sh]
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if time.Since(b.openedAt) < cfg.Cooldown {
			b.shorts.Add(1)
			return false, false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, true
	case BreakerHalfOpen:
		if b.probing {
			b.shorts.Add(1)
			return false, false
		}
		b.probing = true
		return true, true
	}
	return true, false
}

// record feeds one genuine call outcome; with breakers disabled it is a
// no-op. A probe outcome settles the half-open state: success closes the
// breaker (and forgets the sick window), failure re-opens it for another
// cooldown. Failures observed while not closed (in-flight stragglers
// from before the trip) don't re-trip; the probe decides.
func (t *breakerTable) record(sh int, ok, probe bool) {
	cfg := t.config()
	if !cfg.Enabled {
		return
	}
	b := t.brks[sh]
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.ring) != cfg.Window {
		b.ring = make([]bool, cfg.Window)
		b.idx, b.n = 0, 0
	}
	b.ring[b.idx] = ok
	b.idx = (b.idx + 1) % len(b.ring)
	if b.n < len(b.ring) {
		b.n++
	}
	if probe {
		b.probing = false
		if ok {
			b.state = BreakerClosed
			b.idx, b.n = 0, 0
		} else {
			b.state = BreakerOpen
			b.openedAt = time.Now()
			b.opens.Add(1)
		}
		return
	}
	if b.state != BreakerClosed || ok {
		return
	}
	fails := 0
	for _, ok := range b.ring[:b.n] {
		if !ok {
			fails++
		}
	}
	if b.n >= cfg.MinSamples && float64(fails)/float64(b.n) >= cfg.FailureRatio {
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.opens.Add(1)
	}
}

// cancel releases a granted half-open probe slot without an outcome —
// the call was collaterally cancelled (caller context, fail-fast
// cancellation) and says nothing about the shard's health.
func (t *breakerTable) cancel(sh int, probe bool) {
	if !probe {
		return
	}
	b := t.brks[sh]
	b.mu.Lock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

func (t *breakerTable) state(sh int) BreakerState {
	b := t.brks[sh]
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (t *breakerTable) counters() (opens, shorts int64) {
	for _, b := range t.brks {
		opens += b.opens.Load()
		shorts += b.shorts.Load()
	}
	return opens, shorts
}

// ConfigureBreakers applies cfg to every shard's breaker, resetting them
// to closed. Shared by all views of the cluster.
func (c *Cluster) ConfigureBreakers(cfg BreakerConfig) { c.brk.configure(cfg) }

// BreakerConfigured returns the active breaker config.
func (c *Cluster) BreakerConfigured() BreakerConfig { return c.brk.config() }

// BreakerState reports one shard's breaker state.
func (c *Cluster) BreakerState(sh int) BreakerState { return c.brk.state(sh) }

// Resilience aggregates the cluster's self-protection counters.
type Resilience struct {
	// BreakerOpens counts closed/half-open → open transitions.
	BreakerOpens int64
	// BreakerShortCircuits counts calls rejected by an open breaker.
	BreakerShortCircuits int64
}

// Resilience snapshots the cluster's self-protection counters.
func (c *Cluster) Resilience() Resilience {
	opens, shorts := c.brk.counters()
	return Resilience{BreakerOpens: opens, BreakerShortCircuits: shorts}
}
