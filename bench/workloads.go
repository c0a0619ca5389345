package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"streach"
)

// env is what one workload run is given.
type env struct {
	dir     string        // the saved world (read-only for all but ingest-mixed, which copies it)
	tmp     string        // scratch directory of this invocation
	seed    int64         // drives every sampler
	seconds time.Duration // length of the timed phase
	procs   int           // GOMAXPROCS, and the cap on client goroutines / connections
	shared  worldSetup    // the parent's part of the set-up
	probes  bool          // also time the single-layer probes (the traced run)
	preS    float64       // set-up a workload did before opening the world (ingest-mixed's copy), in seconds
	// pool and segments are set by open, for the traced pass to draw the
	// same inputs again without a system of its own to ask.
	pool     []streach.Location
	segments int
	logf     func(string, ...any)
}

// result is what one untraced workload run measured.
type result struct {
	Attempted, Failed int
	Metrics           map[string]float64 // the end-to-end metrics
	Extras            map[string]float64 // printed beside them: sample counts, tail percentile, ungated figures
	Layers            map[string]float64 // per-layer metrics the load run itself yields (counter deltas, generator, set-up)
	Digest            string             // names the generated load
}

// workload is one named traffic mix. Why says which layer it was built
// to stress; the traced pass checks that it does (see guards in
// guards.go).
type workload struct {
	Name string
	Why  string
	// Busiest is the share of the road segments, busiest first, that query
	// locations are drawn from.
	Busiest float64
	// WarmFrom/WarmFor is the Con-Index window warmed before timing.
	WarmFrom, WarmFor time.Duration
	// run is the untraced load run: end-to-end metrics, plus the layer
	// metrics that are counter deltas over it.
	run func(e *env, w *workload) (*result, error)
	// pass is the traced pass over the same generated inputs.
	pass func(e *env, w *workload) (*traced, error)
}

var workloads = []*workload{
	{
		Name:     "wide-distinct",
		Why:      "closed loop, distinct 20-min reach/reverse queries: each verifies ~2200 candidates, far past the decoded-list cache and the 4 MiB pool, so stindex/storage verification dominates",
		Busiest:  0.1,
		WarmFrom: wideFrom, WarmFor: wideSpan + wideDur,
		run: runWide, pass: passWide,
	},
	{
		Name: "cold-bound",
		Why:  "one client on a freshly opened, unwarmed system, start slots walking the day: Con-Index rows are built by query-time Dijkstra, so conindex/core bounding dominates; counts repeat exactly",
		// Origins from the busier half of the city, not its busiest tenth:
		// queries from one small downtown find each other's rows already
		// built (hit ratio 0.48 against 0.21) and stop being cold.
		Busiest: 0.5,
		run:     runCold, pass: passCold,
	},
	{
		Name:     "http-hot",
		Why:      "closed loop over loopback HTTP, 24 Zipf shapes that fit the plan cache plus a 0.1% distinct tail, half GeoJSON: serve, plan cache and geojson dominate, verification is bypassed",
		Busiest:  0.1,
		WarmFrom: hotFrom, WarmFor: hotSpan + hotDur + 5*time.Minute,
		run: runHot, pass: passHot,
	},
	{
		Name:     "ingest-mixed",
		Why:      "open-loop 5000 updates/s with WAL and background compaction beside one closed-loop reader, then a fixed blast and a crash-copy reopen: delta merge, invalidation and compaction cost show here",
		Busiest:  0.1,
		WarmFrom: mixFrom, WarmFor: mixSpan + mixDur,
		run: runMixed, pass: passMixed,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// opened is a world opened for one workload with its share of the
// set-up time.
type opened struct {
	sys    *streach.System
	smp    *sampler
	openS  float64
	warmS  float64
	opened time.Time // when set-up stages with repeats were done; prep time runs from here
}

func (e *env) open(w *workload, dir string) (*opened, error) {
	sys, openS, warmS, err := openWarm(dir, w.WarmFrom, w.WarmFor)
	if err != nil {
		return nil, err
	}
	o := &opened{sys: sys, openS: openS, warmS: warmS, opened: time.Now()}
	ranked := origins(sys.Network(), sys.Dataset())
	e.pool, e.segments = ranked[:int(w.Busiest*float64(len(ranked)))], len(ranked)
	o.smp = newSampler(e.seed, w.Name, e.pool)
	return o, nil
}

// setupS is the workload's whole set-up time: the shared world build and
// save, this workload's open and warm (medians), and whatever else ran
// before the open or between it and the first timed operation (once).
func (e *env) setupS(o *opened, firstOp time.Time) float64 {
	return e.shared.total() + e.preS + o.openS + o.warmS + firstOp.Sub(o.opened).Seconds()
}

// timed is one timed phase with the layer counters read on either side
// of it.
type timed struct {
	load
	before, after counters
	began         time.Time
}

// timePhase runs a timed phase on sys between two counter snapshots.
func timePhase(sys *streach.System, run func() load) timed {
	t := timed{before: snapshot(sys), began: time.Now()}
	t.load = run()
	t.after = snapshot(sys)
	return t
}

// summarise fills in the metrics every workload reports: l is the timed
// phase, wrong how many of its answers failed the output check, sysDir
// the system's directory and visits what it holds.
func (e *env) summarise(o *opened, l timed, wrong int, sysDir string, visits int64) (*result, error) {
	lat := l.latencies()
	good := len(lat) - wrong
	if good < 1 {
		return nil, fmt.Errorf("no correct answers out of %d attempted", len(l.Ops))
	}
	disk, err := dirBytes(sysDir)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	layers := merge(layerCounts(l.before, l.after, len(lat)), genMetrics(l.load, wrong), map[string]float64{
		"setup.simulate_s": e.shared.SimulateS,
		"setup.build_s":    e.shared.BuildS,
		"setup.save_s":     e.shared.SaveS,
		"setup.open_s":     o.openS,
		"setup.warm_s":     o.warmS,
		"conindex.warm_s":  o.warmS,
	})
	return &result{
		Attempted: len(l.Ops),
		Failed:    l.errors() + wrong,
		Metrics: map[string]float64{
			"setup_s":              e.setupS(o, l.began),
			"query_p50_ms":         lat.p(50, ms),
			"query_p95_ms":         lat.p(95, ms),
			"throughput_qps":       float64(good) / l.Elapsed.Seconds(),
			"peak_rss_mb":          rss,
			"disk_bytes_per_visit": float64(disk) / float64(visits),
		},
		Extras: map[string]float64{
			"n":            float64(len(lat)),
			"error_share":  float64(l.errors()+wrong) / float64(len(l.Ops)),
			"gen.tail_pct": layers["gen.tail_pct"],
			"gen.tail_ms":  layers["gen.tail_ms"],
		},
		Layers: layers,
		Digest: o.smp.digest(),
	}, nil
}

// procField reads the number after "key:" in a /proc/self file of
// "key: value [unit]" lines.
func procField(file, key string) (float64, error) {
	f, err := os.Open(file)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				return strconv.ParseFloat(fields[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in %s", key, file)
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM,
// in kB).
func peakRSSMB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmHWM")
	return kb / 1024, err
}

// askDirect is the timed operation of the direct workloads: one
// System.Do, every checkEvery-th answer kept for the output check.
func askDirect(sys *streach.System, qs []query, kept []*answer) func(i int) error {
	return func(i int) error {
		r, err := sys.Do(context.Background(), qs[i].Req)
		if err == nil && i%checkEvery == 0 {
			kept[i] = answerOf(r)
		}
		return err
	}
}

// widePerSecond bounds how many distinct queries are generated per
// second of timed phase; the closed loop uses as many as it gets to.
const widePerSecond = 400

// wideInputs draws wide-distinct's queries: reach/reverse 70/30.
func wideInputs(smp *sampler, seconds time.Duration) []query {
	return smp.distinct(widePerSecond*int(seconds.Seconds()), wideFrom, wideSpan, wideDur, 3)
}

// runDirect is the load run of the direct workloads: clients closed-loop
// callers of System.Do over the drawn queries. With fixedCount every
// query is asked, however long that takes (up to three times -seconds);
// without, as many as fit in -seconds.
func runDirect(e *env, w *workload, draw func(*sampler, time.Duration) []query, clients int, fixedCount bool) (*result, error) {
	o, err := e.open(w, e.dir)
	if err != nil {
		return nil, err
	}
	defer o.sys.Close()
	qs := draw(o.smp, e.seconds)
	kept := make([]*answer, len(qs))
	window := e.seconds
	if fixedCount {
		window *= 3
	}
	l := timePhase(o.sys, func() load { return runClosed(clients, window, len(qs), askDirect(o.sys, qs, kept)) })
	if fixedCount && len(l.Ops) < len(qs) {
		e.logf("%s: cut off after %d of %d queries", w.Name, len(l.Ops), len(qs))
	}
	wrong, err := checkKept(o.sys, qs, kept, e.logf)
	if err != nil {
		return nil, err
	}
	return e.summarise(o, l, wrong, e.dir, int64(e.shared.Visits))
}

func runWide(e *env, w *workload) (*result, error) {
	return runDirect(e, w, wideInputs, e.procs, false)
}

// coldPerSecond fixes cold-bound's query count per second of -seconds,
// so that every run materialises the same rows in the same order and its
// counters repeat exactly. On the reference box the count takes about
// -seconds; a run may take up to three times that before it is cut off.
const coldPerSecond = 40

func coldInputs(smp *sampler, seconds time.Duration) []query {
	return smp.coldWalk(coldPerSecond * int(seconds.Seconds()))
}

func runCold(e *env, w *workload) (*result, error) {
	return runDirect(e, w, coldInputs, 1, true)
}
