// Package conindex implements the Connection Index (thesis §3.2.2).
//
// For every road segment and Δt time slot, the Con-Index records two
// reachable-segment lists derived from historical trajectory speeds:
//
//   - Far(r, t) — the upper-bound list: every segment that could be
//     *entered* within one Δt when travelling at the maximum speed
//     observed on each road during slot t;
//   - Near(r, t) — the lower-bound list: every segment that can be fully
//     traversed within one Δt even at the minimum observed speed
//     (zero-speed records are dropped, per the thesis).
//
// The lists are produced by the modified incremental network expansion of
// Papadias et al. [21] with per-slot travel-time weights. Lists are
// materialised on demand and memoised, so memory stays proportional to
// the (segment, slot) pairs queries actually touch; PrecomputeAll builds
// every list eagerly for small configurations.
package conindex

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"streach/internal/bitset"
	"streach/internal/roadnet"
	"streach/internal/traj"
	"streach/internal/xerr"
)

// errAborted marks a singleflight computation that ended without a row or
// a specific error (compute panicked); waiters retry on it.
var errAborted = fmt.Errorf("conindex: row materialisation aborted")

// ctxCheckInterval is how many Dijkstra pops a materialisation runs
// between context checks: small enough that a cancelled query abandons an
// in-flight expansion within microseconds, large enough that the check is
// free on the happy path.
const ctxCheckInterval = 32

// Config controls Con-Index construction.
type Config struct {
	// SlotSeconds is the temporal granularity Δt (default 300).
	SlotSeconds int
	// MinSpeedFloor drops implausibly slow records (m/s, default 0.5);
	// the thesis removes 0-speed records when building Near lists.
	MinSpeedFloor float64
	// FallbackMinFraction sets the assumed minimum speed on segments with
	// no observations, as a fraction of free-flow speed (default 0.2).
	FallbackMinFraction float64
	// FallbackMaxFraction sets the assumed maximum speed on segments with
	// no observations, as a fraction of free-flow speed (default 1.0).
	FallbackMaxFraction float64
	// NearSafetyFactor scales the minimum speeds used for the Near
	// (lower-bound) tables, default 0.5. Observed per-slot minima are
	// sample minima over few observations and overestimate the true
	// worst-case speed; the Near region must only contain segments that
	// are reachable with near-certainty, so it is built at half the
	// observed minimum. Set to 1.0 to use raw minima (ablation).
	NearSafetyFactor float64
}

func (c Config) withDefaults() Config {
	if c.SlotSeconds <= 0 {
		c.SlotSeconds = 300
	}
	if c.MinSpeedFloor <= 0 {
		c.MinSpeedFloor = 0.5
	}
	if c.FallbackMinFraction <= 0 {
		c.FallbackMinFraction = 0.2
	}
	if c.FallbackMaxFraction <= 0 {
		c.FallbackMaxFraction = 1.0
	}
	if c.NearSafetyFactor <= 0 {
		c.NearSafetyFactor = 0.5
	}
	return c
}

// speedCeiling is the fastest record the speed statistics fold, in m/s.
// A faster one is a timing or matching error, not traffic, and a few of
// them near float32's top would overflow a cell's speed sum to +Inf.
const speedCeiling = 1000

// folds reports whether a record at speed sp (m/s) enters the speed
// statistics: at least MinSpeedFloor and at most speedCeiling, so never
// NaN. A record that does not still enters the ST-Index.
func (c Config) folds(sp float64) bool {
	return sp >= c.MinSpeedFloor && sp <= speedCeiling
}

// Index is the built Con-Index.
type Index struct {
	net      *roadnet.Network
	slotSec  int
	numSlots int
	// cfg keeps the floor/fallback/safety knobs live so streaming speed
	// observations (ObserveSpeed) can reproduce exactly what an offline
	// Build over the union of the data would have computed.
	cfg Config
	// minSpeed/maxSpeed are indexed [slot*numSegments + segment] and hold
	// math.Float32bits of the speed in m/s. They are read atomically: the
	// ingest path updates them in place while expansions run.
	minSpeed []uint32
	maxSpeed []uint32
	// sumSpeed (Float32bits) / cntSpeed accumulate per-slot means for
	// MeanSpeed (used by the time-dependent router).
	sumSpeed []uint32
	cntSpeed []uint32

	// obsMu serialises ObserveSpeed writers; readers stay lock-free.
	obsMu sync.Mutex
	// invGen is bumped after every speed change that can alter a row; the
	// facade's plan store keys on it, so a stored plan never outlives the
	// Con-Index state it was bounded over.
	invGen atomic.Uint64
	// slotGen is invGen broken out per slot. An expansion only reads
	// speeds at its own slot, so a materialisation records slotGen[slot]
	// before its expansion reads any speed and the store step refuses to
	// install the row if that slot's generation moved — a row computed
	// from pre-ingest speeds can never outlive the invalidation that
	// should have killed it (waiters still receive the computed row:
	// their query raced the ingest, which is fine; caching it would not
	// be). Guarding per slot rather than globally matters under live
	// ingest: at thousands of observations/s a global generation moves
	// during nearly every expansion, so no row would ever cache and the
	// bounding phase degrades to one Dijkstra per row per query.
	slotGen []atomic.Uint64

	// The four adjacency tables: materialised Near/Far rows, word-sparse
	// (see row.go), with singleflight cold misses (see table.go).
	near, far       table
	nearRev, farRev table

	// stats counts adjacency-row activity across all four tables.
	stats statCounters

	// scratch pools Dijkstra working state so concurrent expansions never
	// serialize on a shared mutex: each expansion checks out its own
	// scratch and returns it when done.
	scratch sync.Pool
	// buckets overrides the expansion queue's bucket count when
	// non-zero; only tests set it (to 1, the worst pop order).
	buckets int
}

// statCounters are the live adjacency counters; snapshot with Stats().
type statCounters struct {
	hits         atomic.Int64
	materialised atomic.Int64
	loaded       atomic.Int64
}

// Stats is a snapshot of adjacency-row activity.
type Stats struct {
	// Hits counts row lookups served from the materialised cache
	// (including singleflight waiters that shared another caller's
	// expansion).
	Hits int64
	// Materialised counts rows built by running a Dijkstra expansion.
	Materialised int64
	// Loaded counts rows restored from a persisted adjacency blob.
	Loaded int64
}

// Stats snapshots the adjacency counters.
func (x *Index) Stats() Stats {
	return Stats{
		Hits:         x.stats.hits.Load(),
		Materialised: x.stats.materialised.Load(),
		Loaded:       x.stats.loaded.Load(),
	}
}

// Sub returns s - o, for per-query attribution of shared counters.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:         s.Hits - o.Hits,
		Materialised: s.Materialised - o.Materialised,
		Loaded:       s.Loaded - o.Loaded,
	}
}

// expScratch is the per-expansion working state. The stamp trick
// avoids clearing the n-sized arrays between expansions.
type expScratch struct {
	enterCost  []float64
	enterStamp []int32
	stamp      int32
	q          bucketQueue
	// pops is how many entries the last finished expansion popped
	// (BenchmarkExpand reports it).
	pops int
	// out collects the expansion's members; makeRow compresses them
	// through bits, a bitset over the segments that is all zero between
	// expansions. The row gets storage of its own, so both are reused by
	// the next expansion.
	out  []roadnet.SegmentID
	bits bitset.Set
}

// getScratch checks out scratch sized for the network, its queue
// emptied of whatever an aborted expansion left behind.
func (x *Index) getScratch() *expScratch {
	sc, _ := x.scratch.Get().(*expScratch)
	if sc == nil {
		sc = &expScratch{}
	}
	n := x.net.NumSegments()
	if len(sc.enterCost) != n {
		sc.enterCost = make([]float64, n)
		sc.enterStamp = make([]int32, n)
		sc.bits = bitset.New(n)
		sc.stamp = 0
	}
	if sc.stamp == 1<<31-1 { // stamp wrap: clear instead of colliding
		sc.enterStamp = make([]int32, n)
		sc.stamp = 0
	}
	sc.stamp++
	nb := numBuckets
	if x.buckets > 0 {
		nb = x.buckets
	}
	sc.q.reset(nb, float64(x.slotSec))
	sc.out = sc.out[:0]
	return sc
}

func (x *Index) putScratch(sc *expScratch) { x.scratch.Put(sc) }

// Build scans the dataset once to derive per-(segment, slot) speed
// extremes, then returns the index. List materialisation happens lazily.
func Build(net *roadnet.Network, ds *traj.Dataset, cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	if net.NumSegments() == 0 {
		return nil, fmt.Errorf("conindex: empty network")
	}
	if net.NumSegments() > maxRowSegments {
		return nil, fmt.Errorf("conindex: network too large (%d segments, max %d)", net.NumSegments(), maxRowSegments)
	}
	if 86400%cfg.SlotSeconds != 0 {
		return nil, fmt.Errorf("conindex: slot seconds %d must divide 86400", cfg.SlotSeconds)
	}
	numSlots := 86400 / cfg.SlotSeconds
	n := net.NumSegments()
	idx := &Index{
		net:      net,
		slotSec:  cfg.SlotSeconds,
		numSlots: numSlots,
		cfg:      cfg,
		minSpeed: make([]uint32, numSlots*n),
		maxSpeed: make([]uint32, numSlots*n),
		sumSpeed: make([]uint32, numSlots*n),
		cntSpeed: make([]uint32, numSlots*n),
		slotGen:  make([]atomic.Uint64, numSlots),
		near:     newTable(numSlots, n),
		far:      newTable(numSlots, n),
		nearRev:  newTable(numSlots, n),
		farRev:   newTable(numSlots, n),
	}
	// Accumulate in plain float32, then publish as bits: construction is
	// offline, and this goroutine alone writes the index until Build
	// returns (the facade runs it beside the ST-Index build, which only
	// shares the read-only network and dataset).
	minS := make([]float32, numSlots*n)
	maxS := make([]float32, numSlots*n)
	sumS := make([]float32, numSlots*n)
	for i := range ds.Matched {
		// A visit out of range would land on another segment's cell, or
		// another slot's; a NaN speed would poison a bound. Refusing
		// what the ST-Index refuses also keeps one system's two builders
		// in step. Each trajectory is checked just before its fold, while
		// its visits are in cache.
		if err := ds.CheckTrajectory(i, n); err != nil {
			return nil, fmt.Errorf("conindex: %w", err)
		}
		mt := &ds.Matched[i]
		for _, v := range mt.Visits {
			if !cfg.folds(float64(v.Speed)) {
				continue
			}
			s0 := int(v.EnterMs) / 1000 / cfg.SlotSeconds
			s1 := int(v.ExitMs) / 1000 / cfg.SlotSeconds
			for s := s0; s <= s1; s++ {
				if s < 0 || s >= numSlots {
					continue
				}
				k := s*n + int(v.Segment)
				sp := v.Speed
				if minS[k] == 0 || sp < minS[k] {
					minS[k] = sp
				}
				if sp > maxS[k] {
					maxS[k] = sp
				}
				sumS[k] += sp
				idx.cntSpeed[k]++
			}
		}
	}
	// Fallbacks for unobserved (segment, slot) pairs, then the Near-table
	// safety factor on the minima.
	for s := 0; s < numSlots; s++ {
		for seg := 0; seg < n; seg++ {
			k := s*n + seg
			ff := net.Segment(roadnet.SegmentID(seg)).Class.FreeFlowSpeed()
			if minS[k] == 0 {
				minS[k] = float32(ff * cfg.FallbackMinFraction)
			}
			if maxS[k] == 0 {
				maxS[k] = float32(ff * cfg.FallbackMaxFraction)
			}
			minS[k] *= float32(cfg.NearSafetyFactor)
		}
	}
	for k := range minS {
		idx.minSpeed[k] = math.Float32bits(minS[k])
		idx.maxSpeed[k] = math.Float32bits(maxS[k])
		idx.sumSpeed[k] = math.Float32bits(sumS[k])
	}
	return idx, nil
}

// SlotSeconds returns Δt.
func (x *Index) SlotSeconds() int { return x.slotSec }

// NumSlots returns the slots per day.
func (x *Index) NumSlots() int { return x.numSlots }

// loadSpeed atomically reads one speed cell (stored as Float32bits).
func loadSpeed(a []uint32, k int) float32 {
	return math.Float32frombits(atomic.LoadUint32(&a[k]))
}

// MinSpeed returns the slot's minimum observed (or fallback) speed on seg.
func (x *Index) MinSpeed(seg roadnet.SegmentID, slot int) float64 {
	return float64(loadSpeed(x.minSpeed, x.key(seg, slot)))
}

// MaxSpeed returns the slot's maximum observed (or fallback) speed on seg.
func (x *Index) MaxSpeed(seg roadnet.SegmentID, slot int) float64 {
	return float64(loadSpeed(x.maxSpeed, x.key(seg, slot)))
}

// MeanSpeed returns the slot's mean observed speed on seg, falling back
// to 70% of free-flow when the slot was never observed. Used by the
// time-dependent route queries.
func (x *Index) MeanSpeed(seg roadnet.SegmentID, slot int) float64 {
	k := x.key(seg, slot)
	if cnt := atomic.LoadUint32(&x.cntSpeed[k]); cnt > 0 {
		return float64(loadSpeed(x.sumSpeed, k)) / float64(cnt)
	}
	return 0.7 * x.net.Segment(seg).Class.FreeFlowSpeed()
}

// Observations returns how many speed samples the slot has for seg.
func (x *Index) Observations(seg roadnet.SegmentID, slot int) int {
	return int(atomic.LoadUint32(&x.cntSpeed[x.key(seg, slot)]))
}

func (x *Index) key(seg roadnet.SegmentID, slot int) int {
	return x.normSlot(slot)*x.net.NumSegments() + int(seg)
}

func cacheKey(seg roadnet.SegmentID, slot int) int64 {
	return int64(slot)<<32 | int64(uint32(seg))
}

// Kind names one of the four adjacency tables, in their fixed on-disk
// order.
type Kind uint8

const (
	Far Kind = iota
	Near
	FarReverse
	NearReverse
	numKinds
)

// adjTables returns the four tables, indexed by Kind.
func (x *Index) adjTables() [numKinds]*table {
	return [numKinds]*table{Far: &x.far, Near: &x.near, FarReverse: &x.farRev, NearReverse: &x.nearRev}
}

func (x *Index) normSlot(slot int) int {
	return ((slot % x.numSlots) + x.numSlots) % x.numSlots
}

// resolve is the one path to a row: a lock-free table hit, else a
// singleflight expansion under ctx (see table.row). slot is normalised.
// built reports that this call ran the expansion itself.
func (x *Index) resolve(ctx context.Context, k Kind, seg roadnet.SegmentID, slot int) (r Row, built bool, err error) {
	return x.adjTables()[k].row(x, seg, slot, func() (Row, error) {
		if k >= FarReverse {
			return x.expandReverse(ctx, seg, slot, k == FarReverse)
		}
		return x.expand(ctx, seg, slot, k == Far)
	})
}

// RowCtx returns the kind row of (seg, slot) as a word-sparse row (the
// bounding phase's native form). Rows are shared and immutable. A cold
// miss materialises the row once even under concurrency (singleflight),
// running the travel-time Dijkstra under ctx: it aborts (returning ctx's
// error) within one checkpoint interval of cancellation. Cached rows are
// returned regardless of ctx state — only new work is cancellable.
func (x *Index) RowCtx(ctx context.Context, k Kind, seg roadnet.SegmentID, slot int) (Row, error) {
	r, _, err := x.resolve(ctx, k, seg, x.normSlot(slot))
	return r, err
}

// FarRowCtx is RowCtx on the Far table: F(r, t), every segment
// enterable from seg within one Δt at the slot's maximum speeds (seg
// itself included).
func (x *Index) FarRowCtx(ctx context.Context, seg roadnet.SegmentID, slot int) (Row, error) {
	return x.RowCtx(ctx, Far, seg, slot)
}

// NearRowCtx is RowCtx on the Near table: N(r, t), every segment fully
// traversable from seg within one Δt at the slot's minimum speeds.
func (x *Index) NearRowCtx(ctx context.Context, seg roadnet.SegmentID, slot int) (Row, error) {
	return x.RowCtx(ctx, Near, seg, slot)
}

// expand runs a travel-time expansion from seg bounded by Δt, checking
// ctx every ctxCheckInterval pops so a cancelled query abandons the
// expansion promptly.
//
// Far mode (upper bound): a segment is reached when it can be *entered*
// within the budget, travelling at per-slot maximum speeds, starting from
// the entry of seg at time 0: seg's own traversal is charged, so its
// successors are entered only once seg has been driven end to end.
//
// Near mode (lower bound): a segment is reached when it can be *fully
// traversed* within the budget at per-slot minimum speeds, including
// traversing seg itself first.
//
// Rows do not depend on the order the queue pops entries in, which is
// what lets bucketQueue pop out of cost order within a bucket. Every
// pushed cost is at most the budget, and float addition of non-negative
// numbers is monotone. The kernel re-pushes a segment whenever its cost
// strictly drops and skips stale entries, which makes it a
// label-correcting search: in any pop order, when the queue runs dry
// each segment's cost is its minimum left-to-right float path sum (over
// the paths the pruning lets through), the same minimum Dijkstra
// settles it at. Membership tests the popped cost against the budget,
// so it only grows as the cost drops: a segment admitted at a dearer
// cost is admitted at the minimum too, and one the minimum admits is
// admitted when that entry pops. A segment popped twice is appended
// twice, and makeRow collapses the repeat through its bitset. So every
// row is bit-identical whatever order entries pop in.
func (x *Index) expand(ctx context.Context, seg roadnet.SegmentID, slot int, far bool) (Row, error) {
	if err := ctx.Err(); err != nil {
		return Row{}, err
	}
	budget := float64(x.slotSec)
	length := x.net.Lengths()
	off, succ := x.net.Adjacency(roadnet.Forward)
	base := slot * len(length)
	speeds := x.minSpeed
	if far {
		speeds = x.maxSpeed
	}

	sc := x.getScratch()
	defer x.putScratch(sc)
	stamp := sc.stamp
	q := &sc.q

	// enterCost[s]: earliest time s can be entered. Both modes enter the
	// start segment at time 0; Near must additionally finish traversing
	// segments (exit <= budget) while Far only needs to enter them.
	sc.enterCost[seg] = 0
	sc.enterStamp[seg] = stamp
	q.push(entryItem{seg, 0})
	pops := 0
	for ; q.next(); pops++ {
		if pops%ctxCheckInterval == 0 && pops > 0 {
			if err := ctx.Err(); err != nil {
				return Row{}, err
			}
		}
		it := q.pop()
		if it.cost > sc.enterCost[it.seg] {
			continue // stale entry (a pushed segment carries this stamp)
		}
		sp := float64(loadSpeed(speeds, base+int(it.seg)))
		exit := budget + 1
		if sp > 0 {
			exit = it.cost + length[it.seg]/sp
		}
		if far {
			if it.cost > budget {
				continue
			}
		} else if exit > budget {
			continue // cannot finish this segment: prune the branch
		}
		sc.out = append(sc.out, it.seg)
		if exit > budget {
			continue // successors cannot be entered in time
		}
		for _, next := range succ[off[it.seg]:off[it.seg+1]] {
			if sc.enterStamp[next] != stamp || exit < sc.enterCost[next] {
				sc.enterCost[next] = exit
				sc.enterStamp[next] = stamp
				q.push(entryItem{next, exit})
			}
		}
	}
	sc.pops = pops
	return makeRow(sc.out, sc.bits), nil
}

// rowKey names one row: its table, its segment and its normalised slot.
type rowKey struct {
	kind Kind
	seg  roadnet.SegmentID
	slot int
}

// materialise resolves the rows key(0) … key(n-1) through their tables
// — singleflight, slot-generation guard and ctx checkpoints as for any
// single lookup, each expansion on scratch from the pool — on
// min(workers, n) goroutines (workers <= 0: GOMAXPROCS), the caller
// among them; with one it starts none. It is the one fan-out that
// warm-up, serve's prefetch (both through PrecomputeSlotsCtx) and a
// query's bounding round (Pin.OrRows) share. out, when non-nil, receives
// row i at out[i]; built counts the expansions this call ran itself.
// The first error stops the remaining keys, and every worker has
// returned when materialise does. A panic under a key is recovered into
// a KindInternal error: on a worker goroutine it would otherwise take
// the process down rather than fail the one query (table.row has
// deregistered the flight by then, so nothing stays poisoned).
func (x *Index) materialise(ctx context.Context, workers, n int, key func(int) rowKey, out []Row) (built int64, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	one := func(i int) (built bool, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = xerr.Markf(xerr.KindInternal, "conindex: row materialisation panicked: %v", p)
			}
		}()
		// Warm rows are returned whatever ctx says, so a cancelled
		// warm-up over warm keys would otherwise run to the end.
		if err := ctx.Err(); err != nil {
			return false, err
		}
		k := key(i)
		r, built, err := x.resolve(ctx, k.kind, k.seg, k.slot)
		if err == nil && out != nil {
			out[i] = r
		}
		return built, err
	}
	var (
		next, total atomic.Int64
		wg          sync.WaitGroup
		failed      atomic.Bool // set by the first failing key, whose error is err
	)
	work := func() {
		var mine int64
		defer func() { total.Add(mine) }()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || failed.Load() {
				return
			}
			b, e := one(i)
			if e != nil {
				if failed.CompareAndSwap(false, true) {
					err = e
				}
				return
			}
			if b {
				mine++
			}
		}
	}
	for g := 1; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return total.Load(), err
}

// PrecomputeSlotsCtx materialises all four rows — Near and Far, forward
// and reverse (reverse queries bound through the reverse tables) — of
// every segment for the slots [lo, hi] inclusive, wrapping modulo the
// day, on a bounded worker pool (workers 0 = GOMAXPROCS, 1 = serial);
// see materialise. This is the offline index-construction step of the
// thesis; queries against warmed slots are pure lookups. It stops early
// when ctx is cancelled and returns its error. Work items are single
// rows, so even a one-slot warm parallelises across segments; the
// singleflight tables make concurrent warms and queries against the same
// keys safe and duplicate-free. Rows already warmed before cancellation
// stay warm. A slot whose four rows are materialised for every segment
// is skipped — the tables count their rows per slot, so warming a warm
// window costs four loads per slot, not four lookups per segment.
func (x *Index) PrecomputeSlotsCtx(ctx context.Context, lo, hi, workers int) error {
	var slots []int
	for slot := lo; slot <= hi; slot++ {
		if !x.slotWarm(slot) {
			slots = append(slots, x.normSlot(slot))
		}
	}
	nSeg := x.net.NumSegments()
	_, err := x.materialise(ctx, workers, len(slots)*nSeg*int(numKinds), func(i int) rowKey {
		return rowKey{Kind(i % int(numKinds)), roadnet.SegmentID(i / int(numKinds) % nSeg), slots[i/int(numKinds)/nSeg]}
	}, nil)
	return err
}

// SlotsWarm reports whether PrecomputeSlotsCtx over [lo, hi] would find
// nothing to do: all four tables hold every row of every slot in the
// range. It reads the tables' per-slot counts and visits no row.
func (x *Index) SlotsWarm(lo, hi int) bool {
	for s := lo; s <= hi; s++ {
		if !x.slotWarm(s) {
			return false
		}
	}
	return true
}

// slotWarm reports whether all four tables hold every row of slot.
func (x *Index) slotWarm(slot int) bool {
	slot = x.normSlot(slot)
	for _, t := range x.adjTables() {
		if !t.full(slot) {
			return false
		}
	}
	return true
}

type entryItem struct {
	seg  roadnet.SegmentID
	cost float64
}

// numBuckets is the expansion queue's bucket count over [0, Δt].
const numBuckets = 256

// bucketQueue is the expansions' monotone bucket queue (Dial, CACM
// 1969). Every cost an expansion pushes lies in [0, Δt], and an entry
// goes in bucket int(cost·(buckets-1)/Δt), clamped to the last bucket.
// Entries pop from the cursor's bucket, LIFO, so they leave in cost
// order only to a bucket's width, which the kernels tolerate by
// construction (see expand). The cursor only moves forward: a push
// never costs less than the pop that caused it (push clamps to the
// cursor all the same, so no entry can be stranded below it). When the
// cursor's bucket empties, an occupancy bitmap finds the next occupied
// one, so a small expansion never walks the empty buckets between and
// above its costs. A push and a pop are an append and a slice shrink,
// with none of a binary heap's O(log n) compares per pop.
type bucketQueue struct {
	b   [][]entryItem
	cur int // the cursor: every bucket below it is empty
	// occ has bit i set for every non-empty bucket i; the bit of an
	// emptied bucket is cleared only when the cursor leaves it.
	occ   [numBuckets / 64]uint64
	scale float64 // (buckets-1)/Δt
}

// reset empties the queue for an expansion with the given bucket count
// (at most numBuckets) and budget. Entries are left queued only by an
// aborted expansion.
func (q *bucketQueue) reset(buckets int, budget float64) {
	if len(q.b) != buckets {
		q.b, q.occ = make([][]entryItem, buckets), [numBuckets / 64]uint64{}
	}
	for w := range q.occ {
		for word := q.occ[w]; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			q.b[i] = q.b[i][:0]
		}
		q.occ[w] = 0
	}
	q.cur = 0
	q.scale = float64(buckets-1) / budget
}

func (q *bucketQueue) push(it entryItem) {
	i := min(max(int(it.cost*q.scale), q.cur), len(q.b)-1)
	q.b[i] = append(q.b[i], it)
	q.occ[i>>6] |= 1 << (i & 63)
}

// next reports whether an entry is queued, leaving the cursor on the
// lowest non-empty bucket for pop.
func (q *bucketQueue) next() bool {
	return len(q.b[q.cur]) > 0 || q.advance()
}

// advance moves the cursor off its emptied bucket to the next occupied
// one; false when none is. It is next's slow path, kept out of line so
// next inlines.
//
//go:noinline
func (q *bucketQueue) advance() bool {
	w := q.cur >> 6
	q.occ[w] &^= 1 << (q.cur & 63)
	for q.occ[w] == 0 {
		if w++; w == len(q.occ) {
			return false
		}
	}
	q.cur = w<<6 + bits.TrailingZeros64(q.occ[w])
	return true
}

// pop removes and returns the last entry of the cursor's bucket, which
// next has reported non-empty.
func (q *bucketQueue) pop() entryItem {
	b := q.b[q.cur]
	q.b[q.cur] = b[:len(b)-1]
	return b[len(b)-1]
}

// PrecomputeAll materialises every (segment, slot) Near and Far row,
// forward and reverse. Only sensible for small networks or coarse Δt;
// returns the number of rows the tables then hold.
func (x *Index) PrecomputeAll(ctx context.Context) (int, error) {
	if err := x.PrecomputeSlotsCtx(ctx, 0, x.numSlots-1, 0); err != nil {
		return 0, err
	}
	return int(numKinds) * x.numSlots * x.net.NumSegments(), nil
}

// CachedLists reports how many forward Near/Far rows are materialised.
func (x *Index) CachedLists() int {
	return x.near.size() + x.far.size()
}
