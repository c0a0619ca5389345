package streach

import (
	"fmt"
	"time"

	"streach/internal/shard"
)

// Degraded describes a partial-results answer: a sharded query ran with
// WithPartialResults and one or more shards failed, so the region is
// the merge of the surviving shards' partials only.
type Degraded struct {
	// MissingShards lists the shards that did not contribute, ascending.
	MissingShards []int
	// Coverage is the fraction of road segments owned by the shards
	// that did contribute, in [0, 1].
	Coverage float64
	// Causes is parallel to MissingShards: why each shard is missing.
	Causes []error
}

// newDegraded converts the shard layer's loss record to the facade
// form.
func newDegraded(d *shard.Degraded) *Degraded {
	out := &Degraded{
		MissingShards: append([]int(nil), d.MissingShards...),
		Coverage:      d.Coverage,
		Causes:        make([]error, len(d.Failures)),
	}
	for i, se := range d.Failures {
		out.Causes[i] = se
	}
	return out
}

// cloneDegraded deep-copies the loss record for cloneRegion.
func cloneDegraded(d *Degraded) *Degraded {
	if d == nil {
		return nil
	}
	return &Degraded{
		MissingShards: append([]int(nil), d.MissingShards...),
		Coverage:      d.Coverage,
		Causes:        append([]error(nil), d.Causes...),
	}
}

// WithPartialResults makes a sharded query degrade instead of failing:
// when one or more shards fail (error, panic, injected fault, or
// per-shard budget expiry), the surviving shards' partial regions are
// merged into the answer and Region.Degraded reports the loss. Without
// it (the default), any shard failure fails the query with a typed
// ShardFailure (or, for a budget expiry, Timeout) error. No effect on
// unsharded systems. Partial-results queries never share or cache
// plans: a degraded plan is only valid for the failure it observed.
func WithPartialResults(on bool) Option {
	return func(o *queryOptions) { o.partial = on }
}

// WithShardBudget bounds each shard's scatter/gather work for this
// query: a shard that has not finished inside d is treated as failed —
// fail-fast with a typed Timeout error by default, or skipped and
// reported via Region.Degraded under WithPartialResults. This is the
// bound that turns a hung shard into a bounded-latency failure. Zero
// removes the bound; it overrides the system's SetShardBudget for this
// call. No effect on unsharded systems.
func WithShardBudget(d time.Duration) Option {
	return func(o *queryOptions) { o.shardBudget, o.shardBudgetSet = d, true }
}

// ShardFault selects an injected shard failure shape (chaos testing).
type ShardFault int

const (
	// ShardFaultNone clears injection for the shard.
	ShardFaultNone ShardFault = iota
	// ShardFaultError makes the shard fail with an error.
	ShardFaultError
	// ShardFaultPanic makes the shard panic (recovered into an error).
	ShardFaultPanic
	// ShardFaultHang makes the shard block until its context is done.
	ShardFaultHang
)

// String names the fault (chaos-flag keyword).
func (f ShardFault) String() string { return f.kind().String() }

func (f ShardFault) kind() shard.FaultKind {
	switch f {
	case ShardFaultError:
		return shard.FaultError
	case ShardFaultPanic:
		return shard.FaultPanic
	case ShardFaultHang:
		return shard.FaultHang
	}
	return shard.FaultNone
}

// ParseShardFault parses a chaos-flag keyword ("none", "error",
// "panic", "hang").
func ParseShardFault(s string) (ShardFault, error) {
	k, err := shard.ParseFaultKind(s)
	if err != nil {
		return ShardFaultNone, fmt.Errorf("streach: %w", err)
	}
	switch k {
	case shard.FaultError:
		return ShardFaultError, nil
	case shard.FaultPanic:
		return ShardFaultPanic, nil
	case shard.FaultHang:
		return ShardFaultHang, nil
	}
	return ShardFaultNone, nil
}

// InjectShardFault injects (or, with ShardFaultNone, clears) a fault on
// shard sh of a sharded system: every subsequent query touching the
// shard observes the failure shape. The development hook behind the
// `serve -chaos` flag and the chaos tests; it has no effect on results
// until queries actually route work to the shard.
func (s *System) InjectShardFault(sh int, f ShardFault) error {
	c := s.cluster.Load()
	if c == nil {
		return errInvalid("inject", "streach: InjectShardFault on an unsharded system")
	}
	if err := c.InjectFault(sh, f.kind()); err != nil {
		return errInvalid("inject", "streach: %v", err)
	}
	return nil
}

// ShardHealth is one shard's failure record.
type ShardHealth struct {
	// Shard is the shard ordinal.
	Shard int
	// Failures counts scatter/gather failures attributed to the shard.
	Failures int64
	// LastError is the most recent failure's message ("" when none).
	LastError string
	// Fault names the currently injected fault ("none" when healthy).
	Fault string
	// Breaker names the shard's circuit-breaker state ("closed",
	// "half_open", "open"; "closed" when breakers are disabled).
	Breaker string
}

// Degraded reports whether the shard is currently failing: a fault is
// injected or failures have been recorded.
func (h ShardHealth) Degraded() bool { return h.Fault != "none" || h.Failures > 0 }

// ShardHealth snapshots every shard's failure record; nil when the
// system is unsharded.
func (s *System) ShardHealth() []ShardHealth {
	c := s.cluster.Load()
	if c == nil {
		return nil
	}
	hs := c.Health()
	out := make([]ShardHealth, len(hs))
	for i, h := range hs {
		out[i] = ShardHealth{
			Shard:     h.Shard,
			Failures:  h.Failures,
			LastError: h.LastError,
			Fault:     h.Fault.String(),
			Breaker:   h.Breaker.String(),
		}
	}
	return out
}
