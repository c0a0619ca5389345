// Package core implements the spatio-temporal reachability query
// processing of the thesis (§3.3): the exhaustive-search baseline (ES),
// the single-location maximum/minimum bounding region search (SQMB,
// Algorithm 1), the trace back search (TBS, Algorithm 2), and the
// multi-location bounding region search (MQMB, Algorithm 3).
//
// A query q = (S, T, L, Prob) asks for every road segment reachable from
// location S within [T, T+L] on at least a Prob fraction of the dataset's
// days, where reachability is witnessed by historical trajectories: a day
// d supports segment r when some trajectory visited the start segment
// during [T, T+Δt] on day d and also visited r during [T, T+L] on day d
// (thesis §3.3.1, Eq. 3.1).
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streach/internal/bitset"
	"streach/internal/conindex"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/storage"
	"streach/internal/xerr"
)

// Every query method takes a context.Context as its first argument and
// checks it at tight checkpoints — between bounding rounds, on every
// Con-Index row materialisation, per verified candidate inside the
// verifyMany worker pool, and per pop of the ES/TBS expansion loops — so
// a cancelled or deadline-expired context aborts an in-flight query
// within one checkpoint interval and returns ctx.Err().

// Query is a single-location ST reachability query (s-query).
type Query struct {
	// Location is the start location S.
	Location geo.Point
	// Start is the time of day T (offset from midnight).
	Start time.Duration
	// Duration is the prediction length L.
	Duration time.Duration
	// Prob is the required reachability probability in (0, 1].
	Prob float64
}

// MultiQuery is a multi-location ST reachability query (m-query).
type MultiQuery struct {
	Locations []geo.Point
	Start     time.Duration
	Duration  time.Duration
	Prob      float64
}

// Metrics reports the cost of answering one query.
type Metrics struct {
	// Elapsed is the wall-clock processing time.
	Elapsed time.Duration
	// Evaluated counts segments whose reachability probability was
	// verified against the on-disk time lists.
	Evaluated int
	// IO is the buffer-pool activity attributed to the query.
	IO storage.IOStats
	// TLCacheHits and TLCacheMisses count decoded time-list cache
	// activity attributed to the query: the start and destination lists
	// it decodes into probe sets (candidates are matched on the page and
	// never touch the cache). Under concurrent queries the counters are
	// shared, so per-query attribution is approximate (same as IO).
	TLCacheHits, TLCacheMisses int64
	// BoundNS and VerifyNS split Elapsed into the two query phases:
	// bounding-region search (Con-Index row unions) and verification
	// (TBS probing of the time lists). Zero for ES, which has no
	// bounding phase.
	BoundNS, VerifyNS int64
	// ConHits and ConMaterialised count the Con-Index adjacency rows the
	// query's own plan resolved: hits were served from materialised rows
	// (or from another query's expansion of the same key in flight),
	// materialised rows ran a travel-time Dijkstra for this query (the
	// cold-start cost the persisted adjacency blob eliminates). Counted by
	// the plan's row source, so exact under concurrency: over any set of
	// queries ConMaterialised sums to the index's Stats().Materialised
	// delta. A plan reused from the plan cache reports zero.
	ConHits, ConMaterialised int64
	// MaxRegion and MinRegion are the bounding-region sizes (SQMB/MQMB
	// only; zero for ES).
	MaxRegion, MinRegion int
	// ResultSegments is the size of the Prob-reachable region.
	ResultSegments int
	// RoadKm is the total length of the result's road segments.
	RoadKm float64
}

// Result is the answer to a reachability query.
type Result struct {
	// Starts holds the snapped start segment(s).
	Starts []roadnet.SegmentID
	// Segments is the Prob-reachable region, ascending by ID.
	Segments []roadnet.SegmentID
	// Probability holds the verified reachability probability of result
	// segments. Segments admitted without verification (the minimum
	// bounding region, EarlyStop interior) have no entry.
	Probability map[roadnet.SegmentID]float64
	// Metrics is the query cost breakdown.
	Metrics Metrics
}

// Contains reports whether the result region includes seg.
func (r *Result) Contains(seg roadnet.SegmentID) bool {
	i := sort.Search(len(r.Segments), func(i int) bool { return r.Segments[i] >= seg })
	return i < len(r.Segments) && r.Segments[i] == seg
}

// Options tune the engine; the zero value is the default configuration
// (verify between the bounding regions, admit the minimum region
// unverified).
type Options struct {
	// VerifyAll makes TBS verify every segment in the maximum bounding
	// region, including the minimum region. Slower, but the result is
	// exactly {r in Bmax : probability(r, r0) >= Prob}. Used by
	// ablations and correctness tests.
	VerifyAll bool
	// EarlyStop enables the thesis's literal Algorithm 2 queue: branches
	// stop at qualifying segments and the interior the failing wave never
	// reaches is admitted unverified. Fastest, over-approximates on
	// sparse data.
	EarlyStop bool
	// NoVisitedSet disables the TBS visited-set deduplication (thesis
	// §3.3.1's r* example); applies to the EarlyStop wave. Ablation
	// only: the search is then bounded by a pop budget to guarantee
	// termination.
	NoVisitedSet bool
	// NoOverlapFilter disables MQMB's overlap elimination (Algorithm 3
	// lines 7–10). Ablation only.
	NoOverlapFilter bool
	// VerifyWorkers bounds the worker pool that verifies candidate
	// segments in parallel during TBS (probes are read-only once the
	// start sets are materialized). 0 uses GOMAXPROCS; 1 forces the
	// serial path.
	VerifyWorkers int
}

// RowSource supplies Con-Index adjacency rows to a plan's bounding
// phase, one round at a time: OrRows unions the kind rows of a round's
// region segments at the round's slot into the round's bitset, and is
// the only way a bounding round reads the index — how the rows are
// found, and on how many cores the cold ones are built, is the source's
// business. Row resolves a single row, for MQMB's overlap rule, which
// re-reads the row of a candidate's nearest region segment. Stats is
// what the plan resolved and what it had to build, the per-query
// Con-Index figures in Metrics. The default source is a plan-scoped pin
// over the engine's own Con-Index (conindex.Pin implements the
// interface); a sharded cluster installs a routing source that resolves
// each segment's row through the slice of the shard owning it, which is
// how one logical bounding-region search scatters across partitioned
// Con-Index slices without the algorithms knowing. A source belongs to
// one plan and is not safe for concurrent use.
type RowSource interface {
	OrRows(ctx context.Context, kind conindex.Kind, segs []roadnet.SegmentID, slot int, dst bitset.Set) error
	Row(ctx context.Context, kind conindex.Kind, seg roadnet.SegmentID, slot int) (conindex.Row, error)
	Stats() conindex.PinStats
}

// Engine answers reachability queries over one indexed dataset.
type Engine struct {
	net  *roadnet.Network
	st   *stindex.Index
	con  *conindex.Index
	opts Options
	// rows, when set, overrides the per-plan RowSource factory (the
	// default is a fresh conindex.Pin per plan). Installed by the shard
	// cluster's planner view.
	rows func() RowSource
	// scratch pools bounding-region and bitset working state so batch
	// execution stops allocating two network-sized regions per query. A
	// pointer, so the cheap WithOptions views share one pool.
	scratch *engineScratch
}

// engineScratch holds the pooled per-query working state. All pooled
// values are sized for the engine's network. The get/put counters exist
// for leak accounting: outside an in-flight query every get must have
// been matched by a put, including on error, panic-recovery, and
// cancellation paths — ScratchStats exposes the balance to tests.
type engineScratch struct {
	regions sync.Pool // *region
	bitsets sync.Pool // *bitsetBox

	regionGets atomic.Int64
	regionPuts atomic.Int64
	bitsetGets atomic.Int64
	bitsetPuts atomic.Int64
}

// ScratchStats is a point-in-time snapshot of the scratch pool's get/put
// counters. With no query in flight, an imbalance means a pooled region
// or bitset leaked on some exit path.
type ScratchStats struct {
	RegionGets, RegionPuts int64
	BitsetGets, BitsetPuts int64
}

// Balanced reports whether every checkout has been returned.
func (s ScratchStats) Balanced() bool {
	return s.RegionGets == s.RegionPuts && s.BitsetGets == s.BitsetPuts
}

// ScratchStats snapshots the engine's scratch-pool counters. Engines
// derived via WithOptions/WithRowSource share one pool and therefore one
// set of counters.
func (e *Engine) ScratchStats() ScratchStats {
	return ScratchStats{
		RegionGets: e.scratch.regionGets.Load(),
		RegionPuts: e.scratch.regionPuts.Load(),
		BitsetGets: e.scratch.bitsetGets.Load(),
		BitsetPuts: e.scratch.bitsetPuts.Load(),
	}
}

// bitsetBox wraps a pooled bitset behind a pointer so Put does not box a
// slice header into an interface allocation on every release.
type bitsetBox struct {
	bits bitset.Set
}

// NewEngine wires the indexes together. The ST-Index and Con-Index must
// have been built over the same network and with the same Δt.
func NewEngine(st *stindex.Index, con *conindex.Index, opts Options) (*Engine, error) {
	if st == nil || con == nil {
		return nil, fmt.Errorf("core: both indexes are required")
	}
	if st.SlotSeconds() != con.SlotSeconds() {
		return nil, fmt.Errorf("core: index granularity mismatch: ST-Index %ds, Con-Index %ds",
			st.SlotSeconds(), con.SlotSeconds())
	}
	return &Engine{net: st.Network(), st: st, con: con, opts: opts, scratch: &engineScratch{}}, nil
}

// getRegion checks a reset region out of the pool.
func (e *Engine) getRegion() *region {
	e.scratch.regionGets.Add(1)
	if v := e.scratch.regions.Get(); v != nil {
		r := v.(*region)
		if len(r.round) == e.net.NumSegments() {
			r.reset()
			return r
		}
	}
	return newRegion(e.net.NumSegments())
}

// putRegion returns a region to the pool. The caller must not retain the
// region or any view of its segs slice.
func (e *Engine) putRegion(r *region) {
	if r != nil {
		e.scratch.regionPuts.Add(1)
		e.scratch.regions.Put(r)
	}
}

// getBitset checks a zeroed full-network bitset out of the pool.
func (e *Engine) getBitset() *bitsetBox {
	e.scratch.bitsetGets.Add(1)
	if v := e.scratch.bitsets.Get(); v != nil {
		b := v.(*bitsetBox)
		if len(b.bits)*64 >= e.net.NumSegments() {
			clear(b.bits)
			return b
		}
	}
	return &bitsetBox{bits: bitset.New(e.net.NumSegments())}
}

func (e *Engine) putBitset(b *bitsetBox) {
	if b != nil {
		e.scratch.bitsetPuts.Add(1)
		e.scratch.bitsets.Put(b)
	}
}

// Network returns the engine's road network.
func (e *Engine) Network() *roadnet.Network { return e.net }

// Options returns the engine's build-time options.
func (e *Engine) Options() Options { return e.opts }

// WithOptions returns an engine view over the same indexes with opts in
// place of the build-time options. The copy is cheap (the indexes and
// their caches are shared), which is how the facade applies per-query
// option overrides without rebuilding anything.
func (e *Engine) WithOptions(opts Options) *Engine {
	ne := *e
	ne.opts = opts
	return &ne
}

// WithRowSource returns an engine view whose plans resolve Con-Index
// adjacency rows through sources built by factory instead of a plain pin
// — the hook a shard cluster uses to scatter the bounding phase across
// shard-local Con-Index slices.
func (e *Engine) WithRowSource(factory func() RowSource) *Engine {
	ne := *e
	ne.rows = factory
	return &ne
}

// newRowSource builds the per-plan row source.
func (e *Engine) newRowSource() RowSource {
	if e.rows != nil {
		return e.rows()
	}
	return e.con.NewPin()
}

// STIndex returns the engine's spatio-temporal index.
func (e *Engine) STIndex() *stindex.Index { return e.st }

// ConIndex returns the engine's connection index.
func (e *Engine) ConIndex() *conindex.Index { return e.con }

func validateProb(prob float64) error {
	// Written as the negation of the legal range so NaN, for which every
	// comparison is false, is refused too.
	if !(prob > 0 && prob <= 1) {
		return xerr.Markf(xerr.KindInvalid, "core: Prob must be in (0, 1], got %v", prob)
	}
	return nil
}

// ValidateProb reports whether prob is a legal reachability threshold,
// with the same error ResultAt returns. A caller answering one query
// checks it before building the plan, so a request with both a bad
// threshold and a bad window is refused for the threshold, and a bad
// threshold never pays for a plan.
func ValidateProb(prob float64) error { return validateProb(prob) }

func validateWindow(start, dur time.Duration) error {
	if dur <= 0 {
		return xerr.Markf(xerr.KindInvalid, "core: duration must be positive, got %v", dur)
	}
	if start < 0 || start >= 24*time.Hour {
		return xerr.Markf(xerr.KindInvalid, "core: start must be a time of day, got %v", start)
	}
	// slotWindow computes start+dur; past the largest Duration it would
	// wrap negative and select the wrong slots.
	if dur > math.MaxInt64-start {
		return xerr.Markf(xerr.KindInvalid, "core: window end overflows: start %v, duration %v", start, dur)
	}
	return nil
}

// slotWindow returns the slot range [lo, hi] covering [T, T+L], capped at
// the end of the day.
func (e *Engine) slotWindow(start, dur time.Duration) (lo, hi int) {
	slotSec := e.st.SlotSeconds()
	lo = int(start.Seconds()) / slotSec
	hi = int((start + dur).Seconds()) / slotSec
	if hi >= e.st.NumSlots() {
		hi = e.st.NumSlots() - 1
	}
	return lo, hi
}

// probe verifies reachability probabilities against the ST-Index time
// lists. The per-day taxi sets each candidate is matched against — one
// per query source for the forward direction, the destination's folded
// window for the reverse one — are materialised once; after that the
// probe is read-only, so any number of workers may verify candidate
// segments concurrently, each with its own matcher (worker()).
type probe struct {
	e *Engine
	// sets holds, per source and day, the taxi bitset a candidate's time
	// lists must intersect for the day to count.
	sets *stindex.MatchSets
	// loSlot..hiSlot is the slot range read of every candidate.
	loSlot int
	hiSlot int
	days   int
}

// newProbe builds the forward probe: each source's start-slot time list
// is read once, and candidates are matched over the whole window.
func (e *Engine) newProbe(ctx context.Context, sources []roadnet.SegmentID, startSlot, loSlot, hiSlot int) (*probe, error) {
	days := e.st.Days()
	starts := make([][][]uint64, len(sources))
	for i, src := range sources {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bits, err := e.st.TimeListBitsAt(src, startSlot)
		if err != nil {
			return nil, err
		}
		byDay := make([][]uint64, days)
		for j, d := range bits.Days {
			if int(d) < days {
				byDay[d] = bits.Bits[j]
			}
		}
		starts[i] = byDay
	}
	return &probe{e: e, sets: stindex.NewMatchSets(days, starts), loSlot: loSlot, hiSlot: hiSlot, days: days}, nil
}

// probeWorker is one verifier: the probe's shared sets plus a streaming
// matcher of its own. Workers are cheap; create one per goroutine that
// calls prob.
type probeWorker struct {
	p *probe
	// m reads candidate time lists from the planning engine's index by
	// default, from a shard's slice when the worker verifies that shard's
	// subset of the candidates.
	m *stindex.Matcher
}

// worker returns a fresh verifier over the probe's shared sets.
func (p *probe) worker() *probeWorker {
	return p.workerFor(p.e.st)
}

// workerFor returns a verifier that reads candidate time lists from st —
// a shard's ST-Index slice during scatter verification. The probe's
// materialised sets are shared either way, which is the replicated
// boundary metadata a shard needs to verify without owning the start
// segments.
func (p *probe) workerFor(st *stindex.Index) *probeWorker {
	return &probeWorker{p: p, m: st.NewMatcher(p.sets)}
}

// prob returns max over sources of probability(seg, source): the fraction
// of days on which some trajectory appears both in the source's set and
// at seg within the probe's slot range (Eq. 3.1). The candidate's time
// lists are matched where they lie on the page (stindex.Matcher).
func (w *probeWorker) prob(seg roadnet.SegmentID) (float64, error) {
	n, err := w.m.Match(seg, w.p.loSlot, w.p.hiSlot)
	if err != nil {
		return 0, err
	}
	return float64(n) / float64(w.p.days), nil
}

// verifyWorkers resolves the configured verification parallelism.
func (e *Engine) verifyWorkers() int {
	if e.opts.VerifyWorkers > 0 {
		return e.opts.VerifyWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelVerifyThreshold is the candidate count below which spawning
// workers costs more than it saves.
const parallelVerifyThreshold = 16

// verifyMany evaluates prob for every segment with a bounded worker pool
// and returns the probabilities aligned with segs. newWorker must return
// an independent prob function per goroutine (workers share only
// read-only state). Results are deterministic: out[i] depends only on
// segs[i]. Both the serial path and every pool worker check ctx before
// each candidate, so cancellation aborts the verification phase within
// one probe.
func (e *Engine) verifyMany(ctx context.Context, segs []roadnet.SegmentID, newWorker func() func(roadnet.SegmentID) (float64, error)) ([]float64, error) {
	out := make([]float64, len(segs))
	if len(segs) == 0 {
		return out, nil
	}
	workers := e.verifyWorkers()
	if workers > len(segs) {
		workers = len(segs)
	}
	if workers <= 1 || len(segs) < parallelVerifyThreshold {
		prob := newWorker()
		for i, s := range segs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p, err := prob(s)
			if err != nil {
				return nil, err
			}
			out[i] = p
		}
		return out, nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prob := newWorker()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(segs) || failed.Load() {
					return
				}
				err := ctx.Err()
				var p float64
				if err == nil {
					p, err = prob(segs[i])
				}
				if err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
					return
				}
				out[i] = p
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil, firstEr
	}
	return out, nil
}
