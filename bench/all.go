package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// stat is one metric of one workload over the -repeat runs of -all.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"` // (max - min) / median over the repeats
	Bound  float64   `json:"bound,omitempty"`
	Moves  string    `json:"moves,omitempty"`
	Values []float64 `json:"values"`
}

func newStat(spec metricSpec, values []float64) stat {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	// The mean of the middle two for an even count, as the pipeline takes
	// it; the nearest-rank median of two repeats would be their minimum.
	st := stat{Unit: spec.Unit, Bound: spec.Bound, Moves: spec.Moves, Values: values,
		Median: (s[(len(s)-1)/2] + s[len(s)/2]) / 2, Min: s[0], Max: s[len(s)-1]}
	st.Spread = ratio(st.Max-st.Min, st.Median)
	return st
}

// workloadSummary is one workload's part of the -all summary.
type workloadSummary struct {
	Why       string          `json:"why"`
	Digest    string          `json:"load_digest"`
	Samples   float64         `json:"n"` // timed samples per untraced run (median)
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	Ungated   map[string]stat `json:"ungated"`
	PerLayer  map[string]stat `json:"per_layer"`
}

// summary is the object -all prints last. Claim stays null: this
// benchmark is the ruler, and the commit that adds it measures nothing
// against a parent.
type summary struct {
	GOMAXPROCS int                         `json:"gomaxprocs"`
	Seed       int64                       `json:"seed"`
	Seconds    int                         `json:"seconds"`
	Repeat     int                         `json:"repeat"`
	World      map[string]any              `json:"world"`
	Workloads  map[string]*workloadSummary `json:"workloads"`
	Claim      *string                     `json:"claim"`
}

// childOutput parses the two lines a child prints last.
func childOutput(out []byte) (extras, report, error) {
	var ex extras
	var rep report
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return ex, rep, fmt.Errorf("child printed %d lines, want the extras and the report", len(lines))
	}
	if err := json.Unmarshal(lines[len(lines)-2], &ex); err != nil {
		return ex, rep, fmt.Errorf("extras line: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return ex, rep, fmt.Errorf("report line: %w", err)
	}
	return ex, rep, nil
}

// ungated are the figures of the issue's end-to-end list that
// BENCHMARK.json cannot gate: error_share is 0 on a healthy run (the
// report's failed/attempted carries it), and the two ingest figures
// exist on one workload only.
var ungated = []metricSpec{
	{Name: "error_share", Unit: "ratio", Better: "lower"},
	{Name: "ingest_obs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "recovery_s", Unit: "s", Better: "lower"},
}

// runAll builds the world once, runs every workload untraced and traced
// -repeat times, each run in its own child process, and prints every
// metric by name with unit, sample count, spread over the repeats and
// bound.
func runAll(o options, procs int, stdout io.Writer, logf func(string, ...any)) error {
	tmp, err := scratch()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	world := filepath.Join(tmp, "world")
	shared, err := buildWorld(world, logf)
	if err != nil {
		return err
	}

	type series map[string][]float64
	e2e, loose, layers := map[string]series{}, map[string]series{}, map[string]series{}
	sum := summary{GOMAXPROCS: procs, Seed: o.seed, Seconds: o.seconds, Repeat: o.repeat,
		World: map[string]any{"rows": worldRows, "cols": worldCols, "taxis": worldTaxis, "days": worldDays,
			"shift": fmt.Sprintf("%v-%v", shiftStart, shiftEnd), "visits": shared.Visits,
			"index": "DefaultIndexConfig: 300 s slots, 1024 pool pages, 8192 decoded lists, 32 plans"},
		Workloads: map[string]*workloadSummary{}}
	var failures []string
	for rep := 0; rep < o.repeat; rep++ {
		for _, w := range workloads {
			ws := sum.Workloads[w.Name]
			if ws == nil {
				ws = &workloadSummary{Why: w.Why}
				sum.Workloads[w.Name] = ws
				e2e[w.Name], loose[w.Name], layers[w.Name] = series{}, series{}, series{}
			}
			for trace := 0; trace <= 1; trace++ {
				logf("repeat %d/%d: %s, trace %d", rep+1, o.repeat, w.Name, trace)
				cmd, err := childCommand(o, w.Name, trace, world, shared)
				if err != nil {
					return err
				}
				var out bytes.Buffer
				cmd.Stdout, cmd.Stderr = &out, os.Stderr
				runErr := cmd.Run()
				ex, report, err := childOutput(out.Bytes())
				if err != nil {
					if runErr != nil {
						err = runErr
					}
					return fmt.Errorf("%s trace %d: %w", w.Name, trace, err)
				}
				if !report.Correct {
					failures = append(failures, fmt.Sprintf("%s trace %d repeat %d: %d of %d failed",
						w.Name, trace, rep+1, report.Failed, report.Attempted))
				}
				into := layers[w.Name]
				if trace == 0 {
					into = e2e[w.Name]
					ws.Digest, ws.Attempted, ws.Failed = ex.Digest, ws.Attempted+report.Attempted, ws.Failed+report.Failed
					for k, v := range ex.Extras {
						loose[w.Name][k] = append(loose[w.Name][k], v)
					}
				}
				for name, m := range report.Metrics {
					into[name] = append(into[name], m.Value)
				}
			}
		}
	}

	for _, w := range workloads {
		ws := sum.Workloads[w.Name]
		ws.Samples = median(loose[w.Name]["n"])
		ws.EndToEnd, ws.Ungated, ws.PerLayer = map[string]stat{}, map[string]stat{}, map[string]stat{}
		fmt.Fprintf(stdout, "\n== %s: %s\n   load digest %s, n = %.0f timed samples per run, %d repeats\n",
			w.Name, w.Why, ws.Digest, ws.Samples, o.repeat)
		fmt.Fprintf(stdout, "   %-34s %-6s %14s %14s %14s %8s %6s %7s\n",
			"end-to-end metric", "unit", "median", "min", "max", "spread", "bound", "spr/bnd")
		for _, spec := range endToEnd {
			st := newStat(spec, e2e[w.Name][spec.Name])
			ws.EndToEnd[spec.Name] = st
			fmt.Fprintf(stdout, "   %-34s %-6s %14.4f %14.4f %14.4f %8.3f %6.2f %7.2f\n",
				spec.Name, spec.Unit, st.Median, st.Min, st.Max, st.Spread, st.Bound, st.Spread/st.Bound)
		}
		for _, spec := range ungated {
			if vals, ok := loose[w.Name][spec.Name]; ok {
				st := newStat(spec, vals)
				ws.Ungated[spec.Name] = st
				fmt.Fprintf(stdout, "   %-34s %-6s %14.4f %14.4f %14.4f %8.3f %6s %7s\n",
					spec.Name, spec.Unit, st.Median, st.Min, st.Max, st.Spread, "-", "-")
			}
		}
		fmt.Fprintf(stdout, "   %-34s %-6s %14s %14s %14s %8s   %s\n",
			"per-layer metric", "unit", "median", "min", "max", "spread", "should move")
		for _, spec := range perLayer {
			st := newStat(spec, layers[w.Name][spec.Name])
			ws.PerLayer[spec.Name] = st
			fmt.Fprintf(stdout, "   %-34s %-6s %14.4f %14.4f %14.4f %8.3f   %s\n",
				spec.Name, spec.Unit, st.Median, st.Min, st.Max, st.Spread, spec.Moves)
		}
	}
	fmt.Fprintln(stdout)
	enc, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	if len(failures) > 0 {
		return fmt.Errorf("output check or intent guard failed: %s", strings.Join(failures, "; "))
	}
	return nil
}
