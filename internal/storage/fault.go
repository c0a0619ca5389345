package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every error a FaultStore
// injects, so tests and callers can errors.Is() for it.
var ErrInjected = errors.New("storage: injected fault")

// FaultOp selects which Store operation a FaultRule applies to.
type FaultOp int

const (
	OpRead FaultOp = iota
	OpWrite
	OpAlloc
)

// String names the op.
func (o FaultOp) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAlloc:
		return "alloc"
	}
	return "?"
}

// FaultMode selects what an armed FaultRule does to a matching op.
type FaultMode int

const (
	// ModeError fails the op with an ErrInjected-wrapped error.
	ModeError FaultMode = iota
	// ModeLatency delays the op by Latency, then performs it normally.
	ModeLatency
	// ModeCorrupt performs the op, then flips one deterministically
	// chosen bit in the buffer (reads corrupt what the caller sees;
	// writes corrupt what lands in the store).
	ModeCorrupt
)

// String names the mode.
func (m FaultMode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModeCorrupt:
		return "corrupt"
	}
	return "?"
}

// FaultRule describes one deterministic fault: after After matching
// operations pass through untouched, the next Count matching operations
// (all of them when Count <= 0) are affected according to Mode.
type FaultRule struct {
	Op      FaultOp
	Mode    FaultMode
	After   int           // ops to let through before arming
	Count   int           // ops to affect once armed; <= 0 = unlimited
	Latency time.Duration // delay for ModeLatency
}

// Scenario is a seedable set of fault rules, the unit a test configures
// a FaultStore with. Seed drives corruption-bit choice so a scenario
// replays identically.
type Scenario struct {
	Seed  int64
	Rules []FaultRule
}

// armedRule is a FaultRule plus its live op counter.
type armedRule struct {
	FaultRule
	seen  int // matching ops observed so far
	fired int // ops affected so far
}

// FaultStore wraps a Store with deterministic fault injection. It is
// the fault harness shared by the storage, stindex, conindex, and shard
// tests. Safe for concurrent use; rule evaluation is serialized,
// injected latency is not.
type FaultStore struct {
	inner    Store
	mu       sync.Mutex
	rules    []*armedRule
	rng      *rand.Rand
	injected atomic.Int64
}

// NewFaultStore wraps inner with the scenario's rules.
func NewFaultStore(inner Store, sc Scenario) *FaultStore {
	f := &FaultStore{inner: inner, rng: rand.New(rand.NewSource(sc.Seed))}
	f.Arm(sc.Rules...)
	return f
}

// Arm appends rules to the live set. Counters start fresh, so a rule
// armed mid-test begins counting matching ops from now.
func (f *FaultStore) Arm(rules ...FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range rules {
		f.rules = append(f.rules, &armedRule{FaultRule: r})
	}
}

// Clear removes every rule; subsequent operations pass through
// untouched (the "transient fault healed" transition).
func (f *FaultStore) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Injected reports how many operations have been affected so far.
func (f *FaultStore) Injected() int64 { return f.injected.Load() }

// Inner returns the wrapped store.
func (f *FaultStore) Inner() Store { return f.inner }

// decide consumes one op against the rule set and returns the action to
// apply: whether to fail it, a latency to sleep, and whether to flip a
// bit in the buffer.
func (f *FaultStore) decide(op FaultOp) (fail bool, sleep time.Duration, corrupt bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if r.Op != op {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		r.fired++
		f.injected.Add(1)
		switch r.Mode {
		case ModeError:
			fail = true
		case ModeLatency:
			sleep += r.Latency
		case ModeCorrupt:
			corrupt = true
		}
	}
	return fail, sleep, corrupt
}

// flipBit flips one rng-chosen bit in buf.
func (f *FaultStore) flipBit(buf []byte) {
	if len(buf) == 0 {
		return
	}
	f.mu.Lock()
	bit := f.rng.Intn(len(buf) * 8)
	f.mu.Unlock()
	buf[bit/8] ^= 1 << (bit % 8)
}

// NumPages implements Store.
func (f *FaultStore) NumPages() int64 { return f.inner.NumPages() }

// Allocate implements Store.
func (f *FaultStore) Allocate() (PageID, error) {
	fail, sleep, _ := f.decide(OpAlloc)
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if fail {
		return 0, fmt.Errorf("allocate: %w", ErrInjected)
	}
	return f.inner.Allocate()
}

// ReadPage implements Store.
func (f *FaultStore) ReadPage(id PageID, buf []byte) error {
	fail, sleep, corrupt := f.decide(OpRead)
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if fail {
		return fmt.Errorf("read page %d: %w", id, ErrInjected)
	}
	if err := f.inner.ReadPage(id, buf); err != nil {
		return err
	}
	if corrupt {
		f.flipBit(buf[:min(len(buf), PageSize)])
	}
	return nil
}

// WritePage implements Store.
func (f *FaultStore) WritePage(id PageID, buf []byte) error {
	fail, sleep, corrupt := f.decide(OpWrite)
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if fail {
		return fmt.Errorf("write page %d: %w", id, ErrInjected)
	}
	if corrupt {
		tmp := make([]byte, len(buf))
		copy(tmp, buf)
		f.flipBit(tmp[:min(len(tmp), PageSize)])
		return f.inner.WritePage(id, tmp)
	}
	return f.inner.WritePage(id, buf)
}

// Close implements Store.
func (f *FaultStore) Close() error { return f.inner.Close() }

// Sync forwards to the inner store's durability boundary when it has
// one, so a fault-wrapped FileStore still persists like one.
func (f *FaultStore) Sync() error {
	if s, ok := f.inner.(Syncer); ok {
		return s.Sync()
	}
	return nil
}
