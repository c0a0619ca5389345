package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// outDir is where the traced pass writes trace-<workload>.json.
const outDir = "bench/out"

// span is one timed call into a layer's public function, recorded by
// the harness around the call (the program itself is not instrumented).
// Spans of one request share Request; Parent is the ID of the span that
// caused this one, 0 for a request's root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer began
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the pass ends. It is used from one
// goroutine: the traced pass runs one client.
type tracer struct {
	began time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{began: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, request int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		StartNS: time.Since(t.began).Nanoseconds()})
	return id
}

// end closes the span and returns how long it was open.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.began).Nanoseconds()
	return s.dur()
}

// call records fn as a child span of parent.
func (t *tracer) call(name string, parent, request int, fn func()) time.Duration {
	id := t.start(name, parent, request)
	fn()
	return t.end(id)
}

// selfTimes returns each span's self time by ID: its duration minus the
// durations of its direct children.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// coverage is the share of root-span time its direct children account
// for: near 1 when the spans cover the blocking steps, below when time
// goes to something the harness does not see.
func coverage(spans []span) float64 {
	var roots, children time.Duration
	isRoot := make(map[int]bool)
	for _, s := range spans {
		if s.Parent == 0 {
			roots += s.dur()
			isRoot[s.ID] = true
		}
	}
	for _, s := range spans {
		if isRoot[s.Parent] {
			children += s.dur()
		}
	}
	return ratio(float64(children), float64(roots))
}

// byName collects span durations per span name.
func byName(spans []span) map[string]durs {
	out := map[string]durs{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// traced is what one traced pass produced.
type traced struct {
	Attempted, Failed int
	Metrics           map[string]float64 // per-layer metrics
	Guards            []string           // intent-guard failures
	Digest            string
	Seed              int64
	Spans             []span
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Digest   string             `json:"digest"`
	Metrics  map[string]float64 `json:"metrics"`
	Guards   []string           `json:"guards"`
	Spans    []span             `json:"spans"`
}

// write stores the spans and the metrics derived from them.
func (t *traced) write(workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: t.Seed, Digest: t.Digest,
		Metrics: t.Metrics, Guards: t.Guards, Spans: t.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}
