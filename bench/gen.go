package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"sort"
	"time"

	"streach"
	"streach/internal/roadnet"
	"streach/internal/traj"
)

// query is one generated request. The program under test sees only
// these; how they were drawn stays in this file.
type query struct {
	Req     streach.Request
	GeoJSON bool // http-hot: ask for the GeoJSON rendering
	Post    bool // http-hot: POST body with several locations
}

// Query windows, all inside the fleet's 06:00-12:00 shift. Each workload
// has its own hour so that, run back to back on one world in -all mode,
// none inherits another's warm Con-Index rows.
const (
	queryProb = 0.05 // 2 of 30 days: regions of tens of segments, not the 5 of prob 0.2

	wideFrom = 7 * time.Hour
	wideSpan = 45 * time.Minute
	// 20-minute windows verify ~2 300 candidates over 5 slots each, ~8 000
	// decoded-list misses per query against a cache of 8 192: every query
	// evicts what the one before it loaded. The issue's 30-minute windows
	// do the same at a third of the samples per run.
	wideDur = 20 * time.Minute

	coldFrom = 6*time.Hour + 30*time.Minute
	coldTo   = 11*time.Hour + 20*time.Minute
	coldDur  = 10 * time.Minute

	hotFrom   = 9 * time.Hour
	hotSpan   = 30 * time.Minute
	hotDur    = 10 * time.Minute
	hotShapes = 24 // fits the 32-plan cache with room for the distinct tail
	hotZipfS  = 1.1
	// hotTail is the share of requests with a shape never seen before. A
	// plan miss costs ~10 ms against ~0.1 ms for a hit: at the issue's 5 %
	// verification was three quarters of this workload's time, at 1 % still
	// a quarter. At 0.1 % (some 35 misses a run, enough to keep the LRU
	// turning over) it is under a tenth, and a change to verification
	// leaves every figure of this workload where it was - which is what
	// makes it the bypass workload.
	hotTail = 0.001

	// The reader of ingest-mixed asks in the morning rush, like cold-bound
	// and wide-distinct: off-peak traffic is fast and regions are wide (a
	// 10-minute window at 10:00 verifies 2 600 candidates, 43 ms beside the
	// ingest), which left it under 200 samples per run.
	mixFrom = 8*time.Hour + 10*time.Minute
	mixSpan = 30 * time.Minute
	mixDur  = 10 * time.Minute
)

// origins ranks the road segments by traffic, busiest first (ties by
// ID), and returns their midpoints. Query locations are drawn from a
// prefix of it (workload.Busiest): queries from empty side streets
// return one-segment regions and would time snapping, not reachability.
func origins(net *roadnet.Network, ds *traj.Dataset) []streach.Location {
	visits := make([]int, net.NumSegments())
	for i := range ds.Matched {
		for _, v := range ds.Matched[i].Visits {
			visits[v.Segment]++
		}
	}
	ids := make([]int, len(visits))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if visits[ids[a]] != visits[ids[b]] {
			return visits[ids[a]] > visits[ids[b]]
		}
		return ids[a] < ids[b]
	})
	pool := make([]streach.Location, len(ids))
	for i := range pool {
		p := net.Segment(roadnet.SegmentID(ids[i])).Midpoint()
		pool[i] = streach.Location{Lat: p.Lat, Lng: p.Lng}
	}
	return pool
}

// sampler draws every random choice of one workload from one seeded
// stream, and hashes what it hands out so two runs can be shown to have
// carried the same load.
//
// Origins and start times are not independent draws but points of a
// low-discrepancy sequence (Roberts' R2: x_i = frac(x_0 + i/g), y_i =
// frac(y_0 + i/g^2), g the plastic number) whose offset (x_0, y_0) the
// seed picks.
// What a query costs depends on how busy its origin is and how far into
// the rush hour it starts; with independent draws, how many expensive
// queries a run of a few hundred happens to get moves its median by
// several per cent from seed to seed. Every prefix of the sequence covers
// the ranking and the window evenly, so two seeds ask different
// questions of the same mix.
type sampler struct {
	rng    *rand.Rand
	pool   []streach.Location
	sum    hash.Hash
	x0, y0 float64
	nx, ny int
}

const (
	r2x = 0.7548776662466927 // 1/g
	r2y = 0.5698402909980532 // 1/g^2
)

// frac is the fractional part of a non-negative x.
func frac(x float64) float64 { return x - math.Floor(x) }

func newSampler(seed int64, workload string, pool []streach.Location) *sampler {
	// Mix the workload name in, so that one seed gives the four workloads
	// unrelated streams.
	h := sha256.Sum256([]byte(workload))
	salt := int64(binary.LittleEndian.Uint64(h[:8]))
	rng := rand.New(rand.NewSource(seed ^ salt))
	return &sampler{rng: rng, pool: pool, sum: sha256.New(), x0: rng.Float64(), y0: rng.Float64()}
}

func (s *sampler) note(vals ...uint64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		s.sum.Write(b[:])
	}
}

func (s *sampler) noteQuery(q query) {
	flags := uint64(q.Req.Kind)
	if q.GeoJSON {
		flags |= 1 << 8
	}
	if q.Post {
		flags |= 1 << 9
	}
	s.note(flags, uint64(q.Req.Start), uint64(q.Req.Duration), math.Float64bits(q.Req.Prob))
	for _, l := range q.Req.Locations {
		s.note(math.Float64bits(l.Lat), math.Float64bits(l.Lng))
	}
}

// digest names the load generated so far.
func (s *sampler) digest() string { return hex.EncodeToString(s.sum.Sum(nil))[:16] }

// origin draws the next location, by rank in the pool.
func (s *sampler) origin() streach.Location {
	u := frac(s.x0 + float64(s.nx)*r2x)
	s.nx++
	return s.pool[int(u*float64(len(s.pool)))]
}

// startIn draws the next whole-second start time in [from, from+span).
func (s *sampler) startIn(from, span time.Duration) time.Duration {
	u := frac(s.y0 + float64(s.ny)*r2y)
	s.ny++
	return from + time.Duration(u*span.Seconds())*time.Second
}

// distinct draws n single-location queries no two of which share a plan
// key. reverseIn10 of every ten consecutive queries are reverse queries,
// the rest forward: a fixed pattern, not a coin per query, because a
// reverse query bounds over rows no warm-up builds and costs several
// times a forward one, and a share that varied with the seed would move
// the percentiles more than the program does.
func (s *sampler) distinct(n int, from, span, dur time.Duration, reverseIn10 int) []query {
	type key struct {
		kind  streach.Kind
		loc   streach.Location
		start time.Duration
	}
	seen := make(map[key]bool, n)
	out := make([]query, 0, n)
	for len(out) < n {
		kind := streach.KindReach
		if len(out)%10 >= 10-reverseIn10 {
			kind = streach.KindReverse
		}
		k := key{kind, s.origin(), s.startIn(from, span)}
		if seen[k] {
			continue
		}
		seen[k] = true
		q := query{Req: streach.Request{Kind: kind, Locations: []streach.Location{k.loc},
			Start: k.start, Duration: dur, Prob: queryProb}}
		s.noteQuery(q)
		out = append(out, q)
	}
	return out
}

// coldWalk draws n forward queries whose start slots walk a seeded
// permutation of the day's 5-minute slots over and over, each from a
// fresh origin: consecutive queries never share a slot, so each bounds
// over Con-Index rows nobody has materialised yet.
func (s *sampler) coldWalk(n int) []query {
	slots := int((coldTo - coldFrom) / (5 * time.Minute))
	perm := s.rng.Perm(slots)
	out := make([]query, n)
	for i := range out {
		start := coldFrom + time.Duration(perm[i%slots])*5*time.Minute
		out[i] = query{Req: streach.ReachRequest(s.origin(), start, coldDur, queryProb)}
		s.noteQuery(out[i])
	}
	return out
}

// hotProbs are the thresholds hot requests ask for. The threshold is not
// part of the plan key, so one cached plan answers all four.
var hotProbs = []float64{0.05, 0.1, 0.2, 0.5}

// hotStream draws n requests over hotShapes popular shapes (Zipf), every
// fourth shape a three-location POST, with a hotTail share of shapes
// that occur once. It also returns the popular shapes themselves, for
// the warm-up to ask once each before timing starts.
func (s *sampler) hotStream(n int) (stream, shapes []query) {
	shapes = make([]query, hotShapes)
	for i := range shapes {
		start := s.startIn(hotFrom, hotSpan)
		if i%4 == 3 {
			locs := []streach.Location{s.origin(), s.origin(), s.origin()}
			shapes[i] = query{Req: streach.MultiRequest(locs, start, hotDur, hotProbs[0]), Post: true}
		} else {
			shapes[i] = query{Req: streach.ReachRequest(s.origin(), start, hotDur, hotProbs[0])}
		}
	}
	zipf := rand.NewZipf(s.rng, hotZipfS, 1, hotShapes-1)
	out := make([]query, n)
	for i := range out {
		var q query
		if s.rng.Float64() < hotTail {
			q = query{Req: streach.ReachRequest(s.origin(), s.startIn(hotFrom, hotSpan), hotDur, 0)}
		} else {
			q = shapes[zipf.Uint64()]
		}
		q.Req.Prob = hotProbs[s.rng.Intn(len(hotProbs))]
		q.GeoJSON = s.rng.Intn(2) == 0
		s.noteQuery(q)
		out[i] = q
	}
	return out, shapes
}

// updates draws n live position reports over real segments inside the
// shift: fresh taxi IDs (a live fleet joining the historical one), 5-35 s
// traversals, speeds near free flow.
func (s *sampler) updates(n, segments int) []streach.IngestUpdate {
	out := make([]streach.IngestUpdate, n)
	shiftMs := int((shiftEnd - shiftStart) / time.Millisecond)
	for i := range out {
		enter := int32(int(shiftStart/time.Millisecond) + s.rng.Intn(shiftMs-40_000))
		u := streach.IngestUpdate{
			TaxiID:    int32(worldTaxis + s.rng.Intn(1000)),
			Day:       s.rng.Intn(worldDays),
			SegmentID: int32(s.rng.Intn(segments)),
			EnterMs:   enter,
			ExitMs:    enter + 5000 + int32(s.rng.Intn(30000)),
			SpeedMps:  6 + 8*s.rng.Float32(),
		}
		s.note(uint64(u.TaxiID), uint64(u.Day), uint64(u.SegmentID), uint64(u.EnterMs), uint64(u.ExitMs),
			uint64(math.Float32bits(u.SpeedMps)))
		out[i] = u
	}
	return out
}
