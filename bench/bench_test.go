package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"streach"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// An open loop times a request from when it was due: a stall on the
// first request is charged to the requests queued behind it. A closed
// loop, given the same stall, hides it.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 80 * time.Millisecond
	dues := make([]time.Duration, 10)
	for i := range dues {
		dues[i] = time.Duration(i) * time.Millisecond
	}
	do := func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	}
	open := runOpen(dues, 1, do)
	if len(open.Ops) != len(dues) {
		t.Fatalf("open loop ran %d ops, want %d", len(open.Ops), len(dues))
	}
	for _, o := range open.Ops {
		wantAtLeast := stall - dues[o.Index] - time.Millisecond
		if o.Latency < wantAtLeast {
			t.Errorf("open loop: request %d latency %v, want at least %v (due-time accounting)", o.Index, o.Latency, wantAtLeast)
		}
		if o.Index > 0 && o.Lag < wantAtLeast {
			t.Errorf("open loop: request %d lag %v, want at least %v", o.Index, o.Lag, wantAtLeast)
		}
	}
	closed := runClosed(1, time.Second, len(dues), do)
	for _, o := range closed.Ops {
		if o.Index > 0 && o.Latency > stall/2 {
			t.Errorf("closed loop: request %d latency %v; the stall should not show", o.Index, o.Latency)
		}
	}
}

func testPool() []streach.Location {
	pool := make([]streach.Location, 50)
	for i := range pool {
		pool[i] = streach.Location{Lat: 22.5 + float64(i)/1000, Lng: 114 + float64(i)/1000}
	}
	return pool
}

// One seed, one load: every sampler repeats exactly, and the digest says
// so; another seed is another load.
func TestSamplersRepeatPerSeed(t *testing.T) {
	draw := func(seed int64) (hot, wide, cold []query, ups []streach.IngestUpdate, digest string) {
		s := newSampler(seed, "http-hot", testPool())
		hot, _ = s.hotStream(400)
		wide = s.distinct(100, wideFrom, wideSpan, wideDur, 3)
		cold = s.coldWalk(100)
		ups = s.updates(100, 5000)
		return hot, wide, cold, ups, s.digest()
	}
	h1, w1, c1, u1, g1 := draw(7)
	h2, w2, c2, u2, g2 := draw(7)
	if !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(w1, w2) ||
		!reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(u1, u2) || g1 != g2 {
		t.Fatalf("seed 7 drew two different loads (digests %s, %s)", g1, g2)
	}
	h3, _, _, _, g3 := draw(8)
	if g3 == g1 || reflect.DeepEqual(h1, h3) {
		t.Fatalf("seeds 7 and 8 drew the same load (digest %s)", g1)
	}
	// The workload name is part of the stream's seed.
	if a, b := newSampler(7, "wide-distinct", testPool()), newSampler(7, "cold-bound", testPool()); a.rng.Int63() == b.rng.Int63() {
		t.Error("two workloads share one random stream")
	}
}

func TestHotStreamShape(t *testing.T) {
	s := newSampler(1, "http-hot", testPool())
	qs, _ := s.hotStream(20000)
	shapes := map[string]int{}
	geo, post := 0, 0
	for _, q := range qs {
		key := q.Req.Start.String()
		for _, l := range q.Req.Locations {
			key += "|" + time.Duration(l.Lat*1e9).String()
		}
		shapes[key]++
		if q.GeoJSON {
			geo++
		}
		if q.Post {
			post++
			if len(q.Req.Locations) != 3 || q.Req.Kind != streach.KindMulti {
				t.Fatalf("POST request with %d locations of kind %v", len(q.Req.Locations), q.Req.Kind)
			}
		}
	}
	once := 0
	for _, n := range shapes {
		if n == 1 {
			once++
		}
	}
	if share := float64(once) / float64(len(qs)); share < hotTail/2 || share > hotTail*2 {
		t.Errorf("%.3f of the requests have a shape of their own, want about %.2f", share, hotTail)
	}
	if hot := len(shapes) - once; hot > hotShapes {
		t.Errorf("%d repeated shapes, want at most %d", hot, hotShapes)
	}
	if share := float64(geo) / float64(len(qs)); share < 0.45 || share > 0.55 {
		t.Errorf("%.3f of the requests ask GeoJSON, want half", share)
	}
	if post == 0 {
		t.Error("no POST requests")
	}
}

func TestDistinctQueriesShareNoPlanKey(t *testing.T) {
	s := newSampler(3, "wide-distinct", testPool())
	type key struct {
		kind  streach.Kind
		loc   streach.Location
		start time.Duration
	}
	seen := map[key]bool{}
	reverse := 0
	qs := s.distinct(3000, wideFrom, wideSpan, wideDur, 3)
	for _, q := range qs {
		k := key{q.Req.Kind, q.Req.Locations[0], q.Req.Start}
		if seen[k] {
			t.Fatalf("shape %v drawn twice", k)
		}
		seen[k] = true
		if q.Req.Kind == streach.KindReverse {
			reverse++
		}
		if q.Req.Start < wideFrom || q.Req.Start >= wideFrom+wideSpan {
			t.Fatalf("start %v outside the window", q.Req.Start)
		}
	}
	if reverse*10 != len(qs)*3 {
		t.Errorf("%d of %d queries are reverse, want exactly 3 in 10", reverse, len(qs))
	}
}

// Self time is a span's duration minus its direct children's; coverage
// is what the root's direct children account for.
func TestSpanSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Request: 0, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Request: 0, Name: "a", StartNS: 5, EndNS: 35},
		{ID: 3, Parent: 1, Request: 0, Name: "b", StartNS: 40, EndNS: 90},
		{ID: 4, Parent: 3, Request: 0, Name: "c", StartNS: 50, EndNS: 60},
		{ID: 5, Parent: 0, Request: 1, Name: "root", StartNS: 100, EndNS: 200},
		{ID: 6, Parent: 5, Request: 1, Name: "a", StartNS: 100, EndNS: 180},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 20, 2: 30, 3: 40, 4: 10, 5: 20, 6: 80} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d ns, want %d", id, self[id], want)
		}
	}
	if got, want := coverage(spans), 160.0/200.0; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	by := byName(spans)
	if len(by["root"]) != 2 || by["a"].sum() != 110 {
		t.Errorf("byName grouped %v", by)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.start("root", 0, 7)
	d := tr.call("child", root, 7, func() { time.Sleep(2 * time.Millisecond) })
	total := tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Request != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if d < 2*time.Millisecond || total < d {
		t.Errorf("child %v, root %v", d, total)
	}
	if self := selfTimes(tr.spans)[root]; self != total-d {
		t.Errorf("root self time %v, want %v", self, total-d)
	}
}

func TestAnswerDiffers(t *testing.T) {
	a := &answer{Segs: []int32{1, 2}, Probs: []float32{0.5, -1}}
	if d := a.differs(&answer{Segs: []int32{1, 2}, Probs: []float32{0.5, -1}}); d != "" {
		t.Errorf("equal answers differ: %s", d)
	}
	if a.differs(&answer{Segs: []int32{1, 3}, Probs: []float32{0.5, -1}}) == "" ||
		a.differs(&answer{Segs: []int32{1, 2}, Probs: []float32{0.25, -1}}) == "" ||
		a.differs(&answer{Segs: []int32{1}, Probs: []float32{0.5}}) == "" {
		t.Error("different answers compare equal")
	}
	if d := a.differs(&answer{Segs: []int32{1, 2}}); d != "" {
		t.Errorf("a reply without probabilities should compare on segments only: %s", d)
	}
	got, err := decodeBody([]byte(`{"segments":[1,2],"probabilities":[0.5,-1],"road_km":1}`), false)
	if err != nil || got.differs(a) != "" {
		t.Errorf("decodeBody(json) = %+v, %v", got, err)
	}
	got, err = decodeBody([]byte(`{"type":"FeatureCollection","features":[{"properties":{"segment":1}},{"properties":{"segment":2}}]}`), true)
	if err != nil || got.differs(a) != "" || got.Probs != nil {
		t.Errorf("decodeBody(geojson) = %+v, %v", got, err)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the tables in spec.go and workloads.go declare the
// same workloads and metrics, in the same order, and every name and unit
// is one the pipeline accepts. (That a run prints exactly the declared
// metrics is checked by the run itself: see runChild.)
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(raw, k)
	}
	for k := range raw {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", f.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || !reflect.DeepEqual(f.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v, command %v", f.Paths, f.Command)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameOK.MatchString(name) {
			t.Errorf("%s name %q is not one the pipeline accepts", kind, name)
		}
		if unit != "" && !unitOK.MatchString(unit) {
			t.Errorf("%s %s: unit %q is not one the pipeline accepts", kind, name, unit)
		}
		if kind != "workload" && better != "lower" && better != "higher" {
			t.Errorf("%s %s: better %q", kind, name, better)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check("workload", w.Name, "", "")
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), workloads.go %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in spec.go", len(f.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, s := range endToEnd {
		check("end-to-end", s.Name, s.Unit, s.Better)
		if d := f.EndToEnd[i]; d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better || d.Bound != s.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, d, s)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in spec.go", len(f.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		check("per-layer", s.Name, s.Unit, s.Better)
		if d := f.PerLayer[i]; d.Name != s.Name || d.Unit != s.Unit || d.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %+v", i, d, s)
		}
		if s.Moves == "" {
			t.Errorf("per-layer %s does not say which end-to-end metric it should move", s.Name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics, at most 128 and 16 allowed", len(perLayer), len(endToEnd))
	}
}
