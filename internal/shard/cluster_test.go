package shard

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"streach/internal/conindex"
	"streach/internal/core"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/traj"
)

var bg = context.Background()

// oneShot answers one query on an engine the way the facade does: the
// threshold is checked first, then the plan is built, read once at the
// threshold and closed.
func oneShot[Q core.Query | core.MultiQuery](ctx context.Context, plan func(context.Context, Q, ...core.PlanOption) (*core.SharedPlan, error), q Q, prob float64) (*core.Result, error) {
	if err := core.ValidateProb(prob); err != nil {
		return nil, err
	}
	p, err := plan(ctx, q)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.ResultAt(ctx, prob)
}

// probs are the four thresholds every equivalence case answers.
var probs = []float64{0.05, 0.2, 0.5, 0.9}

type fixture struct {
	net    *roadnet.Network
	ds     *traj.Dataset
	st     *stindex.Index
	con    *conindex.Index
	center geo.Point
	away   geo.Point
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		raw, err := roadnet.Generate(roadnet.GenerateConfig{
			Origin:        geo.Point{Lat: 22.50, Lng: 114.00},
			Rows:          10,
			Cols:          10,
			SpacingMeters: 1000,
			LocalFraction: 0.4,
			Seed:          21,
		})
		if err != nil {
			fixErr = err
			return
		}
		net, err := roadnet.Resegment(raw, 500)
		if err != nil {
			fixErr = err
			return
		}
		ds, err := traj.Simulate(net, traj.SimConfig{
			Taxis: 150, Days: 6, Profile: traj.DefaultSpeedProfile(), Seed: 22,
			DaySpeedJitter: 0.1,
		})
		if err != nil {
			fixErr = err
			return
		}
		st, err := stindex.Build(net, ds, stindex.Config{SlotSeconds: 300, PoolPages: 512})
		if err != nil {
			fixErr = err
			return
		}
		con, err := conindex.Build(net, ds, conindex.Config{SlotSeconds: 300})
		if err != nil {
			fixErr = err
			return
		}
		mid := net.Segment(roadnet.SegmentID(net.NumSegments() / 2)).Midpoint()
		away := net.Segment(roadnet.SegmentID(net.NumSegments() / 4)).Midpoint()
		fix = &fixture{net: net, ds: ds, st: st, con: con, center: mid, away: away}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// sameResult asserts everything deterministic about two answers is
// bit-identical: segments, probabilities, starts, and the countable
// metrics — the acceptance contract of sharded execution.
func sameResult(t *testing.T, name string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Segments, want.Segments) {
		t.Fatalf("%s: segments differ (%d vs %d)", name, len(got.Segments), len(want.Segments))
	}
	if !reflect.DeepEqual(got.Starts, want.Starts) {
		t.Fatalf("%s: starts differ (%v vs %v)", name, got.Starts, want.Starts)
	}
	if len(got.Probability) != len(want.Probability) {
		t.Fatalf("%s: probability map sizes differ (%d vs %d)",
			name, len(got.Probability), len(want.Probability))
	}
	for s, p := range want.Probability {
		if gp, ok := got.Probability[s]; !ok || gp != p {
			t.Fatalf("%s: probability of %d = %v, want %v", name, s, got.Probability[s], p)
		}
	}
	if got.Metrics.Evaluated != want.Metrics.Evaluated {
		t.Fatalf("%s: evaluated %d, want %d", name, got.Metrics.Evaluated, want.Metrics.Evaluated)
	}
	if got.Metrics.MaxRegion != want.Metrics.MaxRegion || got.Metrics.MinRegion != want.Metrics.MinRegion {
		t.Fatalf("%s: regions (%d, %d), want (%d, %d)", name,
			got.Metrics.MaxRegion, got.Metrics.MinRegion, want.Metrics.MaxRegion, want.Metrics.MinRegion)
	}
	if got.Metrics.ResultSegments != want.Metrics.ResultSegments {
		t.Fatalf("%s: result segments %d, want %d", name, got.Metrics.ResultSegments, want.Metrics.ResultSegments)
	}
	if got.Metrics.RoadKm != want.Metrics.RoadKm {
		t.Fatalf("%s: road km %v, want %v", name, got.Metrics.RoadKm, want.Metrics.RoadKm)
	}
}

// TestClusterMatchesEngine pins the acceptance criterion: sharded
// results are bit-identical to unsharded across every algorithm at four
// thresholds — including a single-shard cluster, which must degenerate
// to exactly the unsharded answer.
func TestClusterMatchesEngine(t *testing.T) {
	f := getFixture(t)
	q := core.Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	mq := core.MultiQuery{
		Locations: []geo.Point{f.center, f.away},
		Start:     11 * time.Hour, Duration: 10 * time.Minute,
	}

	type algo struct {
		name string
		opts core.Options
		plan func(c *Cluster) (*Plan, error)
		ref  func(e *core.Engine, prob float64) (*core.Result, error)
	}
	algos := []algo{
		{"reach", core.Options{},
			func(c *Cluster) (*Plan, error) { return c.PlanReach(bg, q) },
			func(e *core.Engine, prob float64) (*core.Result, error) { return oneShot(bg, e.PlanReach, q, prob) }},
		{"reach-verifyall", core.Options{VerifyAll: true},
			func(c *Cluster) (*Plan, error) { return c.PlanReach(bg, q) },
			func(e *core.Engine, prob float64) (*core.Result, error) { return oneShot(bg, e.PlanReach, q, prob) }},
		{"reverse", core.Options{},
			func(c *Cluster) (*Plan, error) { return c.PlanReverse(bg, q) },
			func(e *core.Engine, prob float64) (*core.Result, error) { return oneShot(bg, e.PlanReverse, q, prob) }},
		{"multi", core.Options{},
			func(c *Cluster) (*Plan, error) { return c.PlanMulti(bg, mq) },
			func(e *core.Engine, prob float64) (*core.Result, error) { return oneShot(bg, e.PlanMulti, mq, prob) }},
		{"multi-nooverlap", core.Options{NoOverlapFilter: true},
			func(c *Cluster) (*Plan, error) { return c.PlanMulti(bg, mq) },
			func(e *core.Engine, prob float64) (*core.Result, error) { return oneShot(bg, e.PlanMulti, mq, prob) }},
		{"sequential", core.Options{},
			func(c *Cluster) (*Plan, error) { return c.PlanMultiSequential(bg, mq) },
			func(e *core.Engine, prob float64) (*core.Result, error) {
				return oneShot(bg, e.PlanMultiSequential, mq, prob)
			}},
		{"es", core.Options{},
			func(c *Cluster) (*Plan, error) { return c.PlanReachES(bg, q) },
			func(e *core.Engine, prob float64) (*core.Result, error) { return oneShot(bg, e.PlanReachES, q, prob) }},
		{"reverse-es", core.Options{},
			func(c *Cluster) (*Plan, error) { return c.PlanReverseES(bg, q) },
			func(e *core.Engine, prob float64) (*core.Result, error) { return oneShot(bg, e.PlanReverseES, q, prob) }},
	}

	for _, k := range []int{1, 4} {
		for _, a := range algos {
			t.Run(a.name, func(t *testing.T) {
				eng, err := core.NewEngine(f.st, f.con, a.opts)
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewCluster(f.st, f.con, a.opts, k)
				if err != nil {
					t.Fatal(err)
				}
				pl, err := a.plan(c)
				if err != nil {
					t.Fatal(err)
				}
				defer pl.Close()
				if scatterVerified(c) == 0 {
					t.Fatalf("k=%d %s: plan fell back to unsharded", k, a.name)
				}
				for _, prob := range probs {
					got, err := pl.ResultAt(bg, prob)
					if err != nil {
						t.Fatal(err)
					}
					want, err := a.ref(eng, prob)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, a.name, got, want)
				}
			})
		}
	}
}

// TestClusterEarlyStopFallback: the lazy EarlyStop wave cannot scatter;
// the cluster must fall back to planner-local execution and still answer
// bit-identically.
func TestClusterEarlyStopFallback(t *testing.T) {
	f := getFixture(t)
	q := core.Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	opts := core.Options{EarlyStop: true}
	eng, err := core.NewEngine(f.st, f.con, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(f.st, f.con, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := c.PlanReach(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	for _, prob := range probs {
		got, err := pl.ResultAt(bg, prob)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oneShot(bg, eng.PlanReach, q, prob)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "earlystop", got, want)
	}
	if n := scatterVerified(c); n != 0 {
		t.Fatalf("EarlyStop plan scatter-verified %d candidates, want none", n)
	}
}

// scatterVerified sums the candidates scatter-verified across c's shards:
// it moves for a scattered plan and not for a planner-local one.
func scatterVerified(c *Cluster) int64 {
	var n int64
	for _, s := range c.Stats() {
		n += s.CandidatesVerified
	}
	return n
}

// TestClusterStats: scatter verification must attribute candidates to
// the shards that own them, and bounding rows to the slices that served
// them.
func TestClusterStats(t *testing.T) {
	f := getFixture(t)
	c, err := NewCluster(f.st, f.con, core.Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Location: f.center, Start: 11 * time.Hour, Duration: 10 * time.Minute}
	pl, err := c.PlanReach(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if _, err := pl.ResultAt(bg, 0.2); err != nil {
		t.Fatal(err)
	}
	var rows, verified int64
	totalSegs := 0
	for _, s := range c.Stats() {
		rows += s.RowsFetched
		verified += s.CandidatesVerified
		totalSegs += s.Segments
	}
	if totalSegs != f.net.NumSegments() {
		t.Fatalf("partition covers %d segments, want %d", totalSegs, f.net.NumSegments())
	}
	if rows == 0 {
		t.Fatal("no Con-Index rows routed through shard slices")
	}
	if verified == 0 {
		t.Fatal("no candidates scatter-verified")
	}
}
