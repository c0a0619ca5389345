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

// FleetConfig controls the simulated taxi fleet. Traffic always follows
// the default rush-hour congestion profile, with each day's speeds
// scaled by up to ±15 %.
type FleetConfig struct {
	Taxis int
	Days  int
	// Seed drives the simulation.
	Seed int64
}

// fleetDayJitter scales each simulated day's overall speed by
// U(0.85, 1.15): the day-to-day traffic variation of every fleet.
const fleetDayJitter = 0.15

// DefaultFleetConfig simulates 250 taxis over 30 days, mirroring the
// paper's one-month window.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{Taxis: 250, Days: 30, Seed: 2}
}

// IndexConfig describes the index: its granularity and the buffer pool
// behind it. A built system keeps its pages in memory until Save. How a
// query runs — algorithm, ablations,
// verification parallelism — is a per-query Option; how the system is
// laid out — its shard count — is set by the System method Shard after
// construction.
type IndexConfig struct {
	// SlotSeconds is the Δt granularity (default 300 s).
	SlotSeconds int
	// PoolPages is the buffer pool capacity (default 1024 pages).
	PoolPages int
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
	// query-time Dijkstra (the cost WarmCtx moves out of the query path;
	// a freshly built or reopened system starts with every row cold).
	// Counted per plan, so exact under concurrency.
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
	// and a Stats() call (serve's /healthz) need not walk every segment.
	netStats roadnet.Stats
	// features is every segment's GeoJSON Feature, encoded at the first
	// render (geojson.go).
	features geoFeatures
	// ds is the base dataset of a system built in memory (NewSystem,
	// NewSystemFromData), which keeps what its caller handed it. A system
	// opened from a directory holds none — its indexes are the resident
	// form of the data, and they answer everything a query or
	// BusiestLocation asks. Only Dataset and Save elsewhere read
	// dir/dataset.bin, when they are called, and keep nothing. dsStats
	// is the dataset's statistics either way, taken when the system was
	// assembled.
	ds      *traj.Dataset
	dsStats traj.DatasetStats

	st     *stindex.Index
	con    *conindex.Index
	engine *core.Engine
	// cluster, when non-nil, answers reach/reverse/multi queries by
	// scatter-gather over spatially partitioned engines (set by Shard).
	// An atomic pointer so Shard can re-partition while queries are in
	// flight: each query snapshots one cluster (or nil) and runs against
	// it — both layouts answer bit-identically over the same indexes.
	cluster atomic.Pointer[shard.Cluster]
	// plans is the shared-plan store behind Do.
	plans *planStore
	// sharing counts what the plan store saved (see SharingStats).
	sharing sharingCounters
	// topoMu serialises Shard calls, so concurrent re-shards settle on
	// the last one to run, while queries keep loading cluster lock-free.
	topoMu sync.Mutex
	// dir is the save directory backing the system (set by OpenSystem
	// and Save); empty for purely in-memory systems. pagesDir is the
	// directory whose pages.db the page store is (set by OpenSystem only;
	// empty for the in-memory store of a built system): persisting into that
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
}

// sharingCounters are the live plan-sharing counters; snapshot with
// SharingStats.
type sharingCounters struct {
	acquired [3]atomic.Int64 // plan-store requests by how they got their plan
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
}

// SharingStats snapshots the plan-sharing counters.
func (s *System) SharingStats() SharingStats {
	return SharingStats{
		QueriesCoalesced: s.sharing.acquired[planCoalesced].Load(),
		PlanCacheHits:    s.sharing.acquired[planHit].Load(),
		PlanCacheMisses:  s.sharing.acquired[planMiss].Load(),
	}
}

// NewSystem generates a city, simulates a fleet over it, builds both
// indexes, and returns a ready query engine.
func NewSystem(city CityConfig, fleet FleetConfig, idx IndexConfig) (*System, error) {
	net, err := BuildCity(city)
	if err != nil {
		return nil, err
	}
	ds, err := traj.Simulate(net, traj.SimConfig{
		Taxis:          fleet.Taxis,
		Days:           fleet.Days,
		Profile:        traj.DefaultSpeedProfile(),
		Seed:           fleet.Seed,
		DaySpeedJitter: fleetDayJitter,
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
		SlotSeconds: idx.SlotSeconds,
		PoolPages:   idx.PoolPages,
	})
	<-conDone
	if stErr != nil {
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
	s := &System{net: net, netStats: net.Stats(), ds: ds, dsStats: dsStats,
		st: st, con: con, engine: engine, plans: newPlanStore()}
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
// measured time. It is the one way to warm them: Save does not persist
// the rows, so a reopened system starts cold and is warmed by calling
// WarmCtx again. Only the part of the window inside the day is warmed.
// Idempotent, and cheap to repeat: a slot that is already fully warm is
// recognised without walking its rows.
// Nothing calls it on the caller's behalf: outside the windows it warmed,
// a query builds the rows it misses itself.
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

// warmSlots maps a time window to the inclusive Con-Index slot range a
// query over it touches; ok is false when that range is empty.
func (s *System) warmSlots(start, dur time.Duration) (lo, hi int, ok bool) {
	slotSec := s.con.SlotSeconds()
	lo = int(start.Seconds()) / slotSec
	hi = int((start + dur).Seconds()) / slotSec
	// Clip to the day as queries do: Engine.slotWindow caps a window at
	// midnight and request validation refuses a negative start, so no
	// query reads a (wrapped) slot before midnight or after it.
	lo = max(lo, 0)
	hi = min(hi, s.con.NumSlots()-1)
	return lo, hi, lo <= hi
}

// Close stops the live-ingest writer (draining its queue), closes the
// WAL, flushes the plan store, and releases index storage.
func (s *System) Close() error {
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

// BusiestLocation returns the midpoint of the segment with traffic on the
// most distinct days in the slot containing tod, live updates included
// (ties go to the lowest segment ID). Useful for picking realistic query
// origins, mirroring the paper's downtown query location. Each call reads
// that slot's time lists from the ST-Index (stindex.Index.SlotTraffic);
// if they cannot be read it logs why and answers segment 0's midpoint.
func (s *System) BusiestLocation(tod time.Duration) Location {
	traffic, err := s.st.SlotTraffic(int(tod / (time.Duration(s.st.SlotSeconds()) * time.Second)))
	if err != nil {
		log.Printf("streach: busiest location: %v", err)
	}
	best := 0
	for seg, n := range traffic {
		if n > traffic[best] {
			best = seg
		}
	}
	p := s.net.Segment(roadnet.SegmentID(best)).Midpoint()
	return Location{Lat: p.Lat, Lng: p.Lng}
}
