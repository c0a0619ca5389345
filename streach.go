// Package streach is a data-driven spatio-temporal reachability query
// system over massive trajectory data, reproducing Ding's ICDE'17 design
// (see DESIGN.md): given a location S, a start time-of-day T, a duration
// L, and a probability Prob, it returns every road segment that historical
// trajectories reached from S within [T, T+L] on at least a Prob fraction
// of days.
//
// The package is a facade over the internal subsystems:
//
//   - a synthetic metropolis generator and taxi-fleet simulator (the
//     stand-in for the paper's Shenzhen network and 194 GB GPS corpus);
//   - the ST-Index (uniform Δt time slots → shared R-tree → on-disk time
//     lists behind an LRU buffer pool) and the Con-Index (per-slot
//     Near/Far connection tables);
//   - the query algorithms: SQMB+TBS for single-location queries, MQMB
//     for multi-location queries, and the exhaustive-search baseline.
//
// Every query flows through the context-first entry point System.Do: a
// Request names the query kind (reach / reverse / multi / route) and
// functional options override engine defaults per call. The context's
// cancellation and deadline propagate into every layer — bounding
// rounds, Con-Index Dijkstras, the verification worker pool — so an
// abandoned caller stops paying for its query almost immediately. Do is
// safe to call from many goroutines at once, and the `streach serve`
// command exposes the same API over HTTP.
//
// Quick start:
//
//	sys, err := streach.NewSystem(streach.DefaultCityConfig(), streach.DefaultFleetConfig(), streach.DefaultIndexConfig())
//	...
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	region, err := sys.Do(ctx, streach.ReachRequest(
//		streach.Location{Lat: 22.53, Lng: 114.05},
//		11*time.Hour,   // start time of day T
//		10*time.Minute, // duration L
//		0.2,            // probability threshold
//	), streach.WithVerifyWorkers(4))
package streach

import (
	"context"
	"fmt"
	"log"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"streach/internal/conindex"
	"streach/internal/core"
	"streach/internal/geo"
	"streach/internal/ingest"
	"streach/internal/roadnet"
	"streach/internal/shard"
	"streach/internal/stindex"
	"streach/internal/storage"
	"streach/internal/traj"
)

// CityConfig controls the synthetic road network.
type CityConfig struct {
	// OriginLat/OriginLng is the south-west corner.
	OriginLat, OriginLng float64
	// Rows and Cols set the arterial grid size.
	Rows, Cols int
	// SpacingMeters is the arterial block size.
	SpacingMeters float64
	// LocalFraction in [0,1] adds local streets.
	LocalFraction float64
	// ResegmentMeters is the pre-processing granularity (thesis §3.1);
	// 0 skips re-segmentation.
	ResegmentMeters float64
	// Seed drives generation.
	Seed int64
}

// DefaultCityConfig is a mid-sized metropolis: ~12x12 km arterial grid
// re-segmented at 500 m.
func DefaultCityConfig() CityConfig {
	return CityConfig{
		OriginLat: 22.45, OriginLng: 113.90,
		Rows: 12, Cols: 12,
		SpacingMeters:   1000,
		LocalFraction:   0.4,
		ResegmentMeters: 500,
		Seed:            1,
	}
}

// FleetConfig controls the simulated taxi fleet.
type FleetConfig struct {
	Taxis int
	Days  int
	// Seed drives the simulation.
	Seed int64
	// DaySpeedJitter sets day-to-day traffic variation. The zero value
	// keeps the default of 0.15; a negative value requests no jitter at
	// all (the explicit "off" switch, consistent with how FlatTraffic
	// disables the congestion profile).
	DaySpeedJitter float64
	// FlatTraffic disables the rush-hour congestion profile.
	FlatTraffic bool
}

// DefaultFleetConfig simulates 250 taxis over 30 days, mirroring the
// paper's one-month window.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{Taxis: 250, Days: 30, Seed: 2, DaySpeedJitter: 0.15}
}

// IndexConfig describes the index: its granularity and the storage and
// caches behind it. How a query runs — algorithm, ablations,
// verification parallelism — is a per-query Option; how the system is
// laid out — its shard count — is set by the System method Shard after
// construction.
type IndexConfig struct {
	// SlotSeconds is the Δt granularity (default 300 s).
	SlotSeconds int
	// PoolPages is the buffer pool capacity (default 1024 pages).
	PoolPages int
	// TimeListCache is the decoded time-list LRU capacity in entries
	// (default 8192, negative disables). It serves the start and
	// destination lists a query decodes into probe sets; candidate
	// verification streams off the page. See Metrics.TLCacheHits.
	TimeListCache int
	// PageFile, when set, backs the time lists with a real file instead
	// of memory.
	PageFile string
}

// DefaultIndexConfig uses the paper's 5-minute granularity.
func DefaultIndexConfig() IndexConfig {
	return IndexConfig{SlotSeconds: 300, PoolPages: 1024}
}

// Location is a query start point.
type Location struct{ Lat, Lng float64 }

// Metrics describes what a query cost.
type Metrics struct {
	Elapsed time.Duration
	// Bound and Verify split Elapsed into the bounding-region search
	// (Con-Index row unions) and the verification phase (TBS probing).
	// Zero for the exhaustive baseline, which has no bounding phase.
	Bound, Verify time.Duration
	Evaluated     int   // segments verified against on-disk time lists
	PageReads     int64 // physical page reads
	PageHits      int64 // buffer pool hits
	TLCacheHits   int64 // decoded time-list cache hits (skip pool + decode)
	TLCacheMisses int64 // decoded time-list cache misses
	// ConHits and ConMaterialised count the Con-Index adjacency rows this
	// query's plan was served from cache vs. materialised itself by a
	// query-time Dijkstra (the cost a persisted conindex.adj eliminates
	// on cold starts). Counted per plan, so exact under concurrency.
	ConHits         int64
	ConMaterialised int64
	MaxRegion       int
	MinRegion       int
	RoadSegments    int
	RoadKm          float64
}

// Region is a query answer: the Prob-reachable road segments.
type Region struct {
	// SegmentIDs are the reachable segments, ascending.
	SegmentIDs []int32
	// Probabilities is parallel to SegmentIDs: the verified reachability
	// probability of each segment, or -1 for segments admitted without
	// verification (the minimum bounding region).
	Probabilities []float32
	// RoadKm is the total reachable road length.
	RoadKm float64
	// Metrics reports processing cost.
	Metrics Metrics
	// Route is set only for KindRoute answers: the planned journey, whose
	// path SegmentIDs mirrors.
	Route *RouteResult

	sys *System
}

// System is a built reachability query system.
type System struct {
	net *roadnet.Network
	// netStats is net.Stats(), taken once: the network never changes,
	// and Stats() is on serve's per-answer path (maybePrefetch).
	netStats roadnet.Stats
	// features is every segment's GeoJSON Feature, encoded at the first
	// render (geojson.go).
	features geoFeatures
	// ds is the base dataset of a system built in memory (NewSystem,
	// NewSystemFromData), which keeps what its caller handed it. A system
	// opened from a directory holds none — its indexes are the resident
	// form of the data — and what asks for the trajectories themselves
	// (Dataset, BusiestLocation, Save elsewhere) reads dir/dataset.bin
	// when it is called and keeps nothing. dsStats is the dataset's
	// statistics either way, taken when the system was assembled.
	ds      *traj.Dataset
	dsStats traj.DatasetStats
	// busiest memoises BusiestLocation per time of day: the base dataset
	// never changes (live updates do not enter it) and each answer is a
	// scan of every visit.
	busiestMu sync.Mutex
	busiest   map[time.Duration]Location

	st     *stindex.Index
	con    *conindex.Index
	engine *core.Engine
	// cluster, when non-nil, answers reach/reverse/multi queries by
	// scatter-gather over spatially partitioned engines (set by Shard).
	// An atomic pointer so Shard can re-partition while queries are in
	// flight: each query snapshots one cluster (or nil) and runs against
	// it — both layouts answer bit-identically over the same indexes.
	cluster atomic.Pointer[shard.Cluster]
	// plans is the shared-plan store behind Do and WarmPlans.
	plans *planStore
	// sharing counts what the plan store saved (see SharingStats).
	sharing sharingCounters
	// topoMu serialises Shard calls, so concurrent re-shards settle on
	// the last one to run, while queries keep loading cluster lock-free.
	topoMu sync.Mutex
	// dir is the save directory backing the system (set by OpenSystem
	// and Save); empty for purely in-memory systems. pagesDir is the
	// directory whose pages.db the page store is (set by OpenSystem only;
	// empty for memory- and PageFile-backed stores): persisting into that
	// directory only needs a pool sync, anywhere else a page copy. The
	// two part ways when an opened system is saved elsewhere.
	dir      string
	pagesDir string
	// ingestMu guards the live-ingest machinery (see ingest.go) and
	// closed, which Close sets so StartIngest refuses to start;
	// compactMu serialises whole CompactIngestN cycles.
	ingestMu  sync.Mutex
	compactMu sync.Mutex
	closed    bool
	ingestW   *ingest.Writer
	wal       *ingest.SegmentedLog
	// Background incremental compaction loop (see compactLoop).
	compactStop   chan struct{}
	compactDone   chan struct{}
	bgCompacts    atomic.Int64
	bgCompactErrs atomic.Int64
	// Warm-plan pipeline (see warmplans.go): shapes records recent
	// plan-store-miss query shapes; warmN > 0 re-plans the top shapes in
	// the background after opens and compaction epoch swaps.
	shapes     *shapeRecorder
	warmN      atomic.Int32
	warmBusy   atomic.Bool
	warmWG     sync.WaitGroup
	warmCtx    context.Context
	warmCancel context.CancelFunc
}

// sharingCounters are the live plan-sharing counters; snapshot with
// SharingStats.
type sharingCounters struct {
	acquired    [3]atomic.Int64 // plan-store requests by how they got their plan
	plansWarmed atomic.Int64
}

// SharingStats counts the plan sharing the system's plan store has done
// since the system was built. Every request that takes its plan from the
// store — all of Do's reach, reverse and multi requests except those
// with WithBatchSharing(false) — is counted exactly once, as a hit, a
// miss or a coalesced wait.
type SharingStats struct {
	// QueriesCoalesced counts requests that waited for a plan another
	// request was building, instead of building their own.
	QueriesCoalesced int64
	// PlanCacheHits counts requests answered from a plan already parked
	// in the store, skipping bounding, probing and verification entirely;
	// PlanCacheMisses counts requests that built their plan.
	PlanCacheHits   int64
	PlanCacheMisses int64
	// PlansWarmed counts plans built proactively by the warm-plan
	// pipeline (WarmPlans / EnableWarmPlanning) rather than by a query
	// paying the cold-planning cost. Warm passes touch none of the
	// counters above.
	PlansWarmed int64
}

// SharingStats snapshots the plan-sharing counters.
func (s *System) SharingStats() SharingStats {
	return SharingStats{
		QueriesCoalesced: s.sharing.acquired[planCoalesced].Load(),
		PlanCacheHits:    s.sharing.acquired[planHit].Load(),
		PlanCacheMisses:  s.sharing.acquired[planMiss].Load(),
		PlansWarmed:      s.sharing.plansWarmed.Load(),
	}
}

// NewSystem generates a city, simulates a fleet over it, builds both
// indexes, and returns a ready query engine.
func NewSystem(city CityConfig, fleet FleetConfig, idx IndexConfig) (*System, error) {
	net, err := BuildCity(city)
	if err != nil {
		return nil, err
	}
	profile := traj.DefaultSpeedProfile()
	if fleet.FlatTraffic {
		profile = traj.FlatSpeedProfile()
	}
	jitter := fleet.DaySpeedJitter
	switch {
	case jitter == 0:
		jitter = 0.15 // zero value: the documented default
	case jitter < 0:
		jitter = 0 // negative: explicitly no day-to-day jitter
	}
	ds, err := traj.Simulate(net, traj.SimConfig{
		Taxis:          fleet.Taxis,
		Days:           fleet.Days,
		Profile:        profile,
		Seed:           fleet.Seed,
		DaySpeedJitter: jitter,
	})
	if err != nil {
		return nil, fmt.Errorf("streach: simulate fleet: %w", err)
	}
	return NewSystemFromData(net, ds, idx)
}

// BuildCity generates (and optionally re-segments) a synthetic network.
func BuildCity(city CityConfig) (*roadnet.Network, error) {
	net, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin:        geo.Point{Lat: city.OriginLat, Lng: city.OriginLng},
		Rows:          city.Rows,
		Cols:          city.Cols,
		SpacingMeters: city.SpacingMeters,
		LocalFraction: city.LocalFraction,
		Seed:          city.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("streach: generate city: %w", err)
	}
	if city.ResegmentMeters > 0 {
		net, err = roadnet.Resegment(net, city.ResegmentMeters)
		if err != nil {
			return nil, fmt.Errorf("streach: resegment: %w", err)
		}
	}
	return net, nil
}

// NewSystemFromData builds the indexes over an existing network and
// matched trajectory dataset (e.g. decoded with traj.ReadDataset or
// produced by the map-matching stage).
func NewSystemFromData(net *roadnet.Network, ds *traj.Dataset, idx IndexConfig) (*System, error) {
	if idx.SlotSeconds == 0 {
		idx.SlotSeconds = 300
	}
	if idx.PoolPages == 0 {
		idx.PoolPages = 1024
	}
	var store storage.Store
	if idx.PageFile != "" {
		fs, err := storage.OpenFileStore(idx.PageFile)
		if err != nil {
			return nil, fmt.Errorf("streach: open page file: %w", err)
		}
		store = fs
	}
	// The two builds share only the read-only network and dataset, so the
	// Con-Index is built on its own goroutine beside the ST-Index.
	var (
		con     *conindex.Index
		conErr  error
		conDone = make(chan struct{})
	)
	go func() {
		defer close(conDone)
		con, conErr = conindex.Build(net, ds, conindex.Config{SlotSeconds: idx.SlotSeconds})
	}()
	st, stErr := stindex.Build(net, ds, stindex.Config{
		SlotSeconds:   idx.SlotSeconds,
		PoolPages:     idx.PoolPages,
		TimeListCache: idx.TimeListCache,
		Store:         store,
	})
	<-conDone
	if stErr != nil {
		if store != nil {
			store.Close()
		}
		return nil, fmt.Errorf("streach: build ST-Index: %w", stErr)
	}
	if conErr != nil {
		st.Close()
		return nil, fmt.Errorf("streach: build Con-Index: %w", conErr)
	}
	s, err := assembleSystem(net, ds, ds.Stats(), st, con)
	if err != nil {
		st.Close()
		return nil, err
	}
	return s, nil
}

// assembleSystem wires built (or reopened) indexes into an unsharded
// System: the engine with the paper's default policy (per-query options
// change it per call) and the plan store. Shared by NewSystemFromData
// and OpenSystem.
func assembleSystem(net *roadnet.Network, ds *traj.Dataset, dsStats traj.DatasetStats, st *stindex.Index, con *conindex.Index) (*System, error) {
	engine, err := core.NewEngine(st, con, core.Options{})
	if err != nil {
		return nil, err
	}
	s := &System{net: net, netStats: net.Stats(), ds: ds, dsStats: dsStats, busiest: map[time.Duration]Location{},
		st: st, con: con, engine: engine, plans: newPlanStore(), shapes: newShapeRecorder()}
	s.warmCtx, s.warmCancel = context.WithCancel(context.Background())
	return s, nil
}

// Shard switches the system to sharded execution with k shards: the road
// network is grid-partitioned, one engine per shard owns shard-local
// Con-Index/ST-Index slices, and reach/reverse/multi queries run
// scatter-gather with answers bit-identical to unsharded execution
// (route queries always run on the single engine). k <= 1 restores
// single-engine execution. A shard that fails fails the query with the
// error the unsharded engine returns for the same cause (DESIGN.md
// §12.1). Safe to call while queries are in flight: in-flight queries
// finish on the layout they started with (both layouts answer
// identically over the same indexes), new queries see the new one. The
// plan store is flushed — its plans belong to the previous execution
// layout; a plan held or being built across the flush is closed when its
// last holder is done with it, and its answers stay bit-identical.
func (s *System) Shard(k int) error {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	if k <= 1 {
		s.cluster.Store(nil)
		s.plans.clear()
		return nil
	}
	cluster, err := shard.NewCluster(s.st, s.con, s.engine.Options(), k)
	if err != nil {
		return err
	}
	s.cluster.Store(cluster)
	s.plans.clear()
	return nil
}

// Shards reports how many shards the system executes across (1 =
// unsharded).
func (s *System) Shards() int {
	if c := s.cluster.Load(); c != nil {
		return c.Shards()
	}
	return 1
}

// ShardStat describes one shard of a sharded system: its slice of the
// partition and the work routed to it.
type ShardStat struct {
	// Shard is the shard ordinal.
	Shard int
	// Segments is how many road segments the shard owns;
	// BoundarySegments how many of them border another shard (the
	// replicated boundary metadata).
	Segments, BoundarySegments int
	// RowsFetched counts Con-Index adjacency rows the bounding phase
	// routed through the shard's slice.
	RowsFetched int64
	// CandidatesVerified counts candidates scatter-verified on the
	// shard's ST-Index slice, and Verify the wall-clock spent doing it.
	CandidatesVerified int64
	Verify             time.Duration
}

// ShardStats snapshots per-shard activity; nil when the system is
// unsharded.
func (s *System) ShardStats() []ShardStat {
	c := s.cluster.Load()
	if c == nil {
		return nil
	}
	stats := c.Stats()
	out := make([]ShardStat, len(stats))
	for i, st := range stats {
		out[i] = ShardStat{
			Shard:              st.Shard,
			Segments:           st.Segments,
			BoundarySegments:   st.BoundarySegments,
			RowsFetched:        st.RowsFetched,
			CandidatesVerified: st.CandidatesVerified,
			Verify:             time.Duration(st.VerifyNS),
		}
	}
	return out
}

// WarmCtx precomputes the Con-Index Near/Far tables, forward and reverse,
// for every time slot touched by queries starting in [start, start+dur],
// fanning the travel-time Dijkstras out over a GOMAXPROCS-wide worker
// pool: reach, multi and reverse queries inside the window then bound
// by lookups alone. The thesis builds these tables offline during index
// construction; calling WarmCtx moves that cost out of the first query's
// measured time, and Save persists the materialised rows so reopened
// systems skip it entirely. Idempotent, and cheap to repeat: a slot
// that is already fully warm is recognised without walking its rows.
//
// A cancelled or expired ctx stops the precompute workers early and
// returns ctx's error. Rows warmed before the cancellation stay warm, so
// an interrupted warm resumes cheaply.
func (s *System) WarmCtx(ctx context.Context, start, dur time.Duration) error {
	lo, hi, ok := s.warmSlots(start, dur)
	if !ok {
		return nil
	}
	return s.con.PrecomputeSlotsCtx(ctx, lo, hi, 0)
}

// Warmed reports whether WarmCtx over the same window would find nothing
// to do: every Con-Index row of every slot it covers is materialised.
// It costs a few loads per slot, so a caller that warms speculatively
// (serve's post-answer prefetch) can ask before it schedules anything.
func (s *System) Warmed(start, dur time.Duration) bool {
	lo, hi, ok := s.warmSlots(start, dur)
	return !ok || s.con.SlotsWarm(lo, hi)
}

// warmSlots maps a time window to the inclusive Con-Index slot range a
// query over it touches; ok is false when that range is empty.
func (s *System) warmSlots(start, dur time.Duration) (lo, hi int, ok bool) {
	slotSec := s.con.SlotSeconds()
	lo = int(start.Seconds()) / slotSec
	hi = int((start + dur).Seconds()) / slotSec
	// Cap at the end of the day exactly as Engine.slotWindow does:
	// queries never touch slots past midnight, so warming a window that
	// crosses it must not precompute (wrapped) out-of-range slots.
	if maxSlot := s.con.NumSlots() - 1; hi > maxSlot {
		hi = maxSlot
	}
	return lo, hi, lo <= hi
}

// Close stops the live-ingest writer (draining its queue), closes the
// WAL, flushes the plan store, and releases index storage.
func (s *System) Close() error {
	if s.warmCancel != nil {
		s.warmCancel()
		s.warmWG.Wait()
	}
	err := s.stopIngest()
	s.plans.clear()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// Network exposes the underlying road network (in-module callers).
func (s *System) Network() *roadnet.Network { return s.net }

// Dataset returns the base trajectory dataset (in-module callers). A
// system built in memory returns the dataset it was built from. A system
// opened from a directory holds no dataset: each call decodes
// dir/dataset.bin afresh — tens of megabytes on a large world, so keep
// the result rather than calling twice — and returns nil, with the
// reason logged, if the file can no longer be read. Live updates are
// not part of it.
func (s *System) Dataset() *traj.Dataset {
	if s.ds != nil {
		return s.ds
	}
	ds, err := readDataset(s.dir)
	if err != nil {
		log.Printf("streach: dataset unavailable: %v", err)
		return nil
	}
	return ds
}

// Engine exposes the query engine (in-module callers, benchmarks).
func (s *System) Engine() *core.Engine { return s.engine }

func toPoints(locs []Location) []geo.Point {
	out := make([]geo.Point, len(locs))
	for i, l := range locs {
		out[i] = geo.Point{Lat: l.Lat, Lng: l.Lng}
	}
	return out
}

func (s *System) region(res *core.Result) *Region {
	ids := make([]int32, len(res.Segments))
	probs := make([]float32, len(res.Segments))
	for i, seg := range res.Segments {
		ids[i] = int32(seg)
		if p, ok := res.Probability[seg]; ok {
			probs[i] = float32(p)
		} else {
			probs[i] = -1
		}
	}
	return &Region{
		SegmentIDs:    ids,
		Probabilities: probs,
		RoadKm:        res.Metrics.RoadKm,
		Metrics: Metrics{
			Elapsed:         res.Metrics.Elapsed,
			Bound:           time.Duration(res.Metrics.BoundNS),
			Verify:          time.Duration(res.Metrics.VerifyNS),
			Evaluated:       res.Metrics.Evaluated,
			PageReads:       res.Metrics.IO.Reads,
			PageHits:        res.Metrics.IO.Hits,
			TLCacheHits:     res.Metrics.TLCacheHits,
			TLCacheMisses:   res.Metrics.TLCacheMisses,
			ConHits:         res.Metrics.ConHits,
			ConMaterialised: res.Metrics.ConMaterialised,
			MaxRegion:       res.Metrics.MaxRegion,
			MinRegion:       res.Metrics.MinRegion,
			RoadSegments:    res.Metrics.ResultSegments,
			RoadKm:          res.Metrics.RoadKm,
		},
		sys: s,
	}
}

// RouteResult is a planned journey between two locations.
type RouteResult struct {
	// SegmentIDs is the path, origin and destination inclusive.
	SegmentIDs []int32
	// TravelTime is the predicted door-to-door travel time.
	TravelTime time.Duration
	// DistanceKm is the route length.
	DistanceKm float64
}

// Stats describes the built system, Table 4.1-style.
type Stats struct {
	Segments     int
	Vertices     int
	RoadKm       float64
	Taxis        int
	Days         int
	Trajectories int
	Visits       int
	SlotSeconds  int
}

// Stats summarises the system.
func (s *System) Stats() Stats {
	ns := s.netStats
	ts := s.dsStats
	return Stats{
		Segments:     ns.Segments,
		Vertices:     ns.Vertices,
		RoadKm:       ns.TotalKm,
		Taxis:        ts.Taxis,
		Days:         ts.Days,
		Trajectories: ts.Trajectories,
		Visits:       ts.Visits,
		SlotSeconds:  s.st.SlotSeconds(),
	}
}

// busiestMemoCap bounds the BusiestLocation memo. Callers ask for a
// handful of round times of day; a client that walks the clock only
// makes the memo start over.
const busiestMemoCap = 64

// BusiestLocation returns the midpoint of the segment with traffic on the
// most distinct days during the 5-minute window starting at tod. Useful
// for picking realistic query origins, mirroring the paper's downtown
// query location. The first call for a tod scans every visit of the base
// dataset — streamed from dir/dataset.bin, one trajectory in memory at a
// time, when the system holds no dataset — and later calls are answered
// from a memo.
func (s *System) BusiestLocation(tod time.Duration) Location {
	// Held across the scan, so concurrent first calls make one scan.
	s.busiestMu.Lock()
	defer s.busiestMu.Unlock()
	if loc, ok := s.busiest[tod]; ok {
		return loc
	}
	lo, hi := tod, tod+5*time.Minute
	// One flat pass: a [segment]-indexed slice of day bitmasks instead of
	// nested maps — no per-segment allocations on what is a full scan of
	// every visit in the dataset.
	days, nseg := s.dsStats.Days, s.net.NumSegments()
	words := (days + 63) / 64
	masks := make([]uint64, nseg*words)
	visit := func(mt *traj.MatchedTrajectory) error {
		if mt.Day < 0 || int(mt.Day) >= days {
			return nil
		}
		for _, v := range mt.Visits {
			enter := time.Duration(v.EnterMs) * time.Millisecond
			if enter >= lo && enter < hi && v.Segment >= 0 && int(v.Segment) < nseg {
				masks[int(v.Segment)*words+int(mt.Day)>>6] |= 1 << (uint(mt.Day) & 63)
			}
		}
		return nil
	}
	var err error
	if s.ds != nil {
		for i := range s.ds.Matched {
			visit(&s.ds.Matched[i])
		}
	} else {
		_, err = scanDataset(s.dir, visit)
	}
	best := roadnet.SegmentID(0)
	bestN := -1
	for seg := 0; seg < nseg; seg++ {
		n := 0
		for w := 0; w < words; w++ {
			n += bits.OnesCount64(masks[seg*words+w])
		}
		if n > bestN {
			best, bestN = roadnet.SegmentID(seg), n
		}
	}
	p := s.net.Segment(best).Midpoint()
	loc := Location{Lat: p.Lat, Lng: p.Lng}
	if err != nil {
		// Answer from what was read, and ask the file again next time.
		log.Printf("streach: busiest location: dataset scan cut short: %v", err)
		return loc
	}
	if len(s.busiest) >= busiestMemoCap {
		clear(s.busiest)
	}
	s.busiest[tod] = loc
	return loc
}
