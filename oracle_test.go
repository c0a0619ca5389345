package streach

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"streach/internal/traj"
)

// The equivalence oracle (DESIGN.md §17). Every configuration of the
// system — sharded, cached, concurrent, warmed, saved and reopened, live
// ingested, crashed and recovered — must answer every request exactly as
// the unsharded, cache-less, offline-built engine over the same data
// does. A test states that as a row: a subject, a reference, and a
// request list, checked by checkOracle with the one comparator,
// diffRegion.

// diffRegion is the one answer comparator: "" when got and want are the
// same answer, else the first difference. Every field it reads is a
// function of the data and the request alone: the segments and their
// probabilities, the road length, the bounding-region sizes and the
// verification count, and the GeoJSON bytes.
func diffRegion(got, want *Region) string {
	if got == nil || want == nil {
		return fmt.Sprintf("missing region (got %v, want %v)", got != nil, want != nil)
	}
	g, w := got.Metrics, want.Metrics
	switch {
	case !slices.Equal(got.SegmentIDs, want.SegmentIDs):
		return fmt.Sprintf("segments differ (%d vs %d)", len(got.SegmentIDs), len(want.SegmentIDs))
	case !slices.Equal(got.Probabilities, want.Probabilities):
		return "probabilities differ"
	case got.RoadKm != want.RoadKm:
		return fmt.Sprintf("road km %v vs %v", got.RoadKm, want.RoadKm)
	case g.Evaluated != w.Evaluated, g.MaxRegion != w.MaxRegion, g.MinRegion != w.MinRegion,
		g.RoadSegments != w.RoadSegments, g.RoadKm != w.RoadKm:
		return fmt.Sprintf("metrics (evaluated, max, min, segments, km) (%d %d %d %d %v) vs (%d %d %d %d %v)",
			g.Evaluated, g.MaxRegion, g.MinRegion, g.RoadSegments, g.RoadKm,
			w.Evaluated, w.MaxRegion, w.MinRegion, w.RoadSegments, w.RoadKm)
	}
	a, aerr := got.AppendGeoJSON(nil)
	b, berr := want.AppendGeoJSON(nil)
	if aerr != nil || berr != nil || !bytes.Equal(a, b) {
		return fmt.Sprintf("GeoJSON differs (%d vs %d bytes, errors %v, %v)", len(a), len(b), aerr, berr)
	}
	return ""
}

// oracleReq is one request of the matrix. kind names the request shape
// and option set, the same for every threshold of it; invalid marks a
// request every configuration must refuse with InvalidRequest.
type oracleReq struct {
	kind    string
	req     Request
	opts    []Option
	invalid bool
}

func (q oracleReq) String() string { return fmt.Sprintf("%s p=%v", q.kind, q.req.Prob) }

// key identifies the request by content: kind fixes the options.
func (q oracleReq) key() string { return q.kind + fmt.Sprintf("%+v", q.req) }

// byKind splits a kind-ordered request list into one list per kind.
func byKind(reqs []oracleReq) [][]oracleReq {
	var out [][]oracleReq
	for lo, hi := 0, 0; lo < len(reqs); lo = hi {
		for hi = lo; hi < len(reqs) && reqs[hi].kind == reqs[lo].kind; hi++ {
		}
		out = append(out, reqs[lo:hi])
	}
	return out
}

// requestSet is what requestMatrix returns. full and smoke both end with
// the invalid block.
type requestSet struct {
	full, smoke, invalid []oracleReq
}

// requestMatrix returns the requests a row answers, around the busiest
// location at time of day at: reach, reverse and multi under the bounded
// algorithm, exhaustive search, VerifyAll, EarlyStop and sequential MQMB,
// at four thresholds (full); reach, reverse and multi at one threshold
// (smoke, for rows that repeat many times); and the invalid block.
func requestMatrix(s *System, at time.Duration) requestSet {
	loc := s.BusiestLocation(at)
	dur := 10 * time.Minute
	multi := []Location{loc, {Lat: loc.Lat + 0.01, Lng: loc.Lng + 0.01}}
	kinds := []oracleReq{
		{kind: "reach", req: ReachRequest(loc, at, dur, 0)},
		{kind: "reach-es", req: ReachRequest(loc, at, dur, 0), opts: []Option{WithAlgorithm(AlgoExhaustive)}},
		{kind: "reach-verifyall", req: ReachRequest(loc, at, dur, 0), opts: []Option{WithVerifyAll(true)}},
		{kind: "reach-earlystop", req: ReachRequest(loc, at, dur, 0), opts: []Option{WithEarlyStop(true)}},
		{kind: "reverse", req: ReverseRequest(loc, at, dur, 0)},
		{kind: "reverse-es", req: ReverseRequest(loc, at, dur, 0), opts: []Option{WithAlgorithm(AlgoExhaustive)}},
		{kind: "multi", req: MultiRequest(multi, at, dur, 0)},
		{kind: "multi-seq", req: MultiRequest(multi, at, dur, 0), opts: []Option{WithAlgorithm(AlgoSequential)}},
	}
	var set requestSet
	for _, k := range kinds {
		for _, prob := range []float64{0.05, 0.2, 0.5, 0.9} {
			q := k
			q.req.Prob = prob
			set.full = append(set.full, q)
			if prob == 0.2 && q.opts == nil {
				set.smoke = append(set.smoke, q)
			}
		}
	}
	bad := func(kind string, req Request, opts ...Option) {
		set.invalid = append(set.invalid, oracleReq{kind: kind, req: req, opts: opts, invalid: true})
	}
	reach := func(start, d time.Duration, prob float64) Request { return ReachRequest(loc, start, d, prob) }
	bad("no-location", Request{Kind: KindReach, Start: at, Duration: dur, Prob: 0.2})
	bad("route-one-location", Request{Kind: KindRoute, Locations: []Location{loc}})
	bad("multi-none", Request{Kind: KindMulti, Start: at, Duration: dur, Prob: 0.2})
	bad("bad-kind", Request{Kind: Kind(42), Locations: []Location{loc}})
	bad("route-exhaustive", RouteRequest(loc, loc, 0), WithAlgorithm(AlgoExhaustive))
	bad("reach-sequential", reach(at, dur, 0.2), WithAlgorithm(AlgoSequential))
	bad("multi-exhaustive", MultiRequest(multi, at, dur, 0.2), WithAlgorithm(AlgoExhaustive))
	bad("prob-0", reach(at, dur, 0))
	bad("prob-1.5", reach(at, dur, 1.5))
	bad("prob-NaN", reach(at, dur, math.NaN()))
	bad("start-negative", reach(-time.Minute, dur, 0.2))
	bad("start-24h", reach(24*time.Hour, dur, 0.2))
	bad("dur-0", reach(at, 0, 0.2))
	bad("end-overflows", reach(at, 2562047*time.Hour, 0.2))
	set.full = append(set.full, set.invalid...)
	set.smoke = append(set.smoke, set.invalid...)
	return set
}

// valid drops the invalid block, for rows that count plan-cache traffic.
func valid(reqs []oracleReq) []oracleReq {
	return slices.DeleteFunc(slices.Clone(reqs), func(q oracleReq) bool { return q.invalid })
}

// outcome is one answer a side gives: a region, or the error Do
// returned.
type outcome struct {
	Region *Region
	Err    error
}

// A side answers a request list. It may answer each request more than
// once: answer j is to reqs[j%len(reqs)].
type side func(reqs []oracleReq) []outcome

// clients answers through Do from n concurrent clients, each walking the
// whole list from its own offset.
func clients(s *System, n int) side {
	return func(reqs []oracleReq) []outcome {
		out := make([]outcome, n*len(reqs))
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range reqs {
					i := (k + c) % len(reqs)
					r := &out[c*len(reqs)+i]
					r.Region, r.Err = s.Do(context.Background(), reqs[i].req, reqs[i].opts...)
				}
			}()
		}
		wg.Wait()
		return out
	}
}

// serial answers through Do, one request at a time.
func serial(s *System) side { return clients(s, 1) }

// concurrent answers every request twice, all at once: each answer is a
// Do call on a goroutine of its own, with opts ahead of the request's own
// options, so identical requests race to share one plan.
func concurrent(s *System, opts ...Option) side {
	return func(reqs []oracleReq) []outcome {
		out := make([]outcome, 2*len(reqs))
		var wg sync.WaitGroup
		for j := range out {
			q := reqs[j%len(reqs)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[j].Region, out[j].Err = s.Do(context.Background(), q.req, append(slices.Clone(opts), q.opts...)...)
			}()
		}
		wg.Wait()
		return out
	}
}

// replay answers reqs on s once and then answers any of them, in any
// order, from that record: the answers of a system as it was, or a
// reference answered once for several subjects.
func replay(s side, reqs []oracleReq) side {
	answers := map[string]outcome{}
	for i, r := range s(reqs)[:len(reqs)] {
		answers[reqs[i].key()] = r
	}
	return func(qs []oracleReq) []outcome {
		out := make([]outcome, len(qs))
		for i, q := range qs {
			out[i] = answers[q.key()]
		}
		return out
	}
}

var referenceAnswers sync.Map // oracleReq.key() → outcome

// reference answers on smallSystem, the unsharded, cache-less,
// offline-built engine, asking it each distinct request once per test
// binary: the fixture never changes, so neither do its answers.
func reference(t testing.TB) side {
	s := smallSystem(t)
	return func(reqs []oracleReq) []outcome {
		out := make([]outcome, len(reqs))
		for i, q := range reqs {
			if r, ok := referenceAnswers.Load(q.key()); ok {
				out[i] = r.(outcome)
				continue
			}
			out[i].Region, out[i].Err = s.Do(context.Background(), q.req, q.opts...)
			referenceAnswers.Store(q.key(), out[i])
		}
		return out
	}
}

// checkOracle answers reqs on ref and on subject and fails t at the
// first disagreement: a valid request must be answered by both, with no
// difference under diffRegion; an invalid one refused by both with
// InvalidRequest. Two empty regions agree, so a row with valid requests
// fails when the reference answers every one of them with nothing.
func checkOracle(t testing.TB, ref, subject side, reqs []oracleReq) {
	t.Helper()
	want, got := ref(reqs), subject(reqs)
	answers, nonEmpty := 0, 0
	for j, g := range got {
		q, w := reqs[j%len(reqs)], want[j%len(reqs)]
		switch {
		case q.invalid:
			if CodeOf(w.Err) != InvalidRequest || CodeOf(g.Err) != InvalidRequest {
				t.Fatalf("%v: want InvalidRequest, reference says %v, subject %v", q, w.Err, g.Err)
			}
		case w.Err != nil:
			t.Fatalf("%v: reference: %v", q, w.Err)
		case g.Err != nil:
			t.Fatalf("%v (answer %d): %v", q, j/len(reqs), g.Err)
		default:
			if d := diffRegion(g.Region, w.Region); d != "" {
				t.Fatalf("%v (answer %d): %s", q, j/len(reqs), d)
			}
			answers++
			if len(w.Region.SegmentIDs) > 0 {
				nonEmpty++
			}
		}
	}
	if answers > 0 && nonEmpty == 0 {
		t.Fatalf("the reference answers all %d valid requests with an empty region: the row compares nothing", answers)
	}
}

// vcfg is one configuration for variant.
type vcfg struct {
	planCache int           // plan-store capacity: 0 the default, -1 parks no plan
	shards    int           // Shard(shards) when > 1
	warm      time.Duration // WarmCtx over [warm, warm+10m] when non-zero
	saved     bool          // open a saved copy of smallSystem, or of warmed
	dir       string        // open this save directory instead of building
	data      *traj.Dataset // build over this dataset instead of smallSystem's
	// shared: build the configuration once and keep it for every test
	// that asks for the same one, which must leave it as it found it.
	shared bool
}

// warmed is the shared build warmed over [at, at+10m]: the system a
// warmed save is made from.
func warmed(at time.Duration) vcfg { return vcfg{planCache: -1, warm: at, shared: true} }

var sharedVariants sync.Map // vcfg → *System

// variant is the one system builder over smallSystem's world: a fresh
// offline build, an opened saved copy of smallSystem or warmed(warm), or
// an opened save directory, then sharded as cfg says. Unless shared, the
// system is closed when t ends. smallSystem itself is never changed:
// saving it leaves it as it was.
func variant(t testing.TB, cfg vcfg) *System {
	t.Helper()
	if s, ok := sharedVariants.Load(cfg); ok {
		return s.(*System)
	}
	base := smallSystem(t)
	idx := DefaultIndexConfig()
	var s *System
	var err error
	switch {
	case cfg.dir != "":
		s, err = OpenSystem(cfg.dir, idx)
	case cfg.saved:
		src := base
		if cfg.warm != 0 {
			src = variant(t, warmed(cfg.warm))
		}
		dir := t.TempDir()
		if err = src.Save(dir); err == nil {
			s, err = OpenSystem(dir, idx)
		}
	default:
		ds := cfg.data
		if ds == nil {
			ds = base.Dataset()
		}
		if s, err = NewSystemFromData(base.Network(), ds, idx); err == nil && cfg.warm != 0 {
			err = s.WarmCtx(context.Background(), cfg.warm, 10*time.Minute)
		}
	}
	if err == nil && cfg.shards > 1 {
		err = s.Shard(cfg.shards)
	}
	if err != nil {
		t.Fatal(err)
	}
	if cfg.planCache != 0 {
		s.plans.cap = max(cfg.planCache, 0)
	}
	if cfg.shared {
		sharedVariants.Store(cfg, s)
	} else {
		t.Cleanup(func() { s.Close() })
	}
	return s
}

// copyDir copies a save directory, subdirectories included.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(dp, 0o755); err != nil {
				t.Fatal(err)
			}
			copyDir(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err == nil {
			err = os.WriteFile(dp, data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// cloneRegion deep-copies an answer, so a test can perturb the copy.
func cloneRegion(r *Region) *Region {
	cp := *r
	cp.SegmentIDs = slices.Clone(r.SegmentIDs)
	cp.Probabilities = slices.Clone(r.Probabilities)
	if r.Route != nil {
		rt := *r.Route
		rt.SegmentIDs = slices.Clone(r.Route.SegmentIDs)
		cp.Route = &rt
	}
	return &cp
}

// captureLog sends the standard logger to a buffer until t ends.
func captureLog(t testing.TB) *bytes.Buffer {
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(prev) })
	return &buf
}

// TestDiffRegionBites: a change to any field diffRegion compares is a
// difference.
func TestDiffRegionBites(t *testing.T) {
	s := smallSystem(t)
	want, err := s.Do(context.Background(), testQuery(s))
	if err != nil {
		t.Fatal(err)
	}
	if d := diffRegion(cloneRegion(want), want); d != "" || len(want.SegmentIDs) == 0 {
		t.Fatalf("a copy differs (%q) or the answer is empty", d)
	}
	city := smallCity
	city.OriginLat += 0.01
	moved, err := BuildCity(city)
	if err != nil {
		t.Fatal(err)
	}
	for name, perturb := range map[string]func(*Region){
		"segment":         func(r *Region) { r.SegmentIDs[0]++ },
		"probability":     func(r *Region) { r.Probabilities[0] += 0.5 },
		"road km":         func(r *Region) { r.RoadKm += 1e-9 },
		"evaluated":       func(r *Region) { r.Metrics.Evaluated++ },
		"max region":      func(r *Region) { r.Metrics.MaxRegion++ },
		"min region":      func(r *Region) { r.Metrics.MinRegion++ },
		"road segments":   func(r *Region) { r.Metrics.RoadSegments++ },
		"metrics road km": func(r *Region) { r.Metrics.RoadKm += 1e-9 },
		"geojson":         func(r *Region) { r.sys = &System{net: moved} },
	} {
		r := cloneRegion(want)
		perturb(r)
		if diffRegion(r, want) == "" || diffRegion(want, r) == "" {
			t.Errorf("%s: the perturbation is no difference", name)
		}
	}
}

// TestOpenPreFrameDirectory: a directory saved before the derived files
// shared one frame (testdata/preframe, Δt one hour: meta v5, CIDX v2,
// CADJ v2 and SPSH v1 files), opened with the default 300 s config,
// rebuilds both indexes at its own hour and drops the two warm caches,
// answers exactly as a fresh build over its own network and
// trajectories, and opens the second time with no rebuild.
func TestOpenPreFrameDirectory(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "preframe"), dir)
	idx := DefaultIndexConfig()
	slotOf := func(s *System) {
		t.Helper()
		if st, con := s.st.SlotSeconds(), s.con.SlotSeconds(); st != 3600 || con != 3600 {
			t.Fatalf("reopened at %d s (st-index) and %d s (con-index), saved at 3600 s", st, con)
		}
	}
	logBuf := captureLog(t)
	opened, err := OpenSystem(dir, idx)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	for _, want := range []string{"st-index unreadable", "con-index unreadable", "adjacency cache unreadable", "plan shapes unreadable"} {
		if !strings.Contains(logBuf.String(), want) {
			t.Fatalf("open of a pre-frame directory did not log %q:\n%s", want, logBuf.String())
		}
	}
	slotOf(opened)
	hourly := idx
	hourly.SlotSeconds = 3600
	fresh, err := NewSystemFromData(opened.Network(), opened.Dataset(), hourly)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	reqs := requestMatrix(fresh, 10*time.Hour).full
	checkOracle(t, serial(fresh), serial(opened), reqs)

	logBuf.Reset()
	again, err := OpenSystem(dir, idx)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if strings.Contains(logBuf.String(), "cold rebuild") {
		t.Fatalf("the second open rebuilt again:\n%s", logBuf.String())
	}
	slotOf(again)
	checkOracle(t, serial(fresh), serial(again), reqs)
}
