// Command bench is streach's benchmark: one seeded world, four named
// workloads, end-to-end metrics from untraced runs and per-layer metrics
// from a traced pass over the same generated inputs. See README.md.
//
// The pipeline runs it one workload at a time:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the JSON object on the last line of standard output. A
// person runs the whole set with
//
//	bash bench/run.sh -all [-repeat N] [-seed n] [-seconds s]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// buildDir is the one directory (relative to the checkout the benchmark
// is run from) the benchmark writes to besides bench/out; run.sh puts the
// binary and the Go caches there too.
const buildDir = ".bench_build"

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line flags. The last three are set only by the
// benchmark itself, on the child process that runs one workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	all      bool
	repeat   int

	child  bool
	world  string
	shared string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of every sampler (origins, start times, Zipf draws, thresholds, reply formats, ingest updates)")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.BoolVar(&o.all, "all", false, "run every workload, untraced and traced, -repeat times, and print every metric")
	fs.IntVar(&o.repeat, "repeat", 2, "with -all: how many times to run the whole set")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload on the world saved at -world")
	fs.StringVar(&o.world, "world", "", "internal: directory of the saved world")
	fs.StringVar(&o.shared, "shared", "", "internal: the parent's set-up timings")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "bench: "+format+"\n", a...) }
	if o.seconds < 1 || o.repeat < 1 || (o.trace != 0 && o.trace != 1) {
		logf("-seconds and -repeat must be at least 1, -trace 0 or 1")
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	var err error
	switch {
	case o.child:
		err = runChild(o, procs, stdout, logf)
	case o.all:
		err = runAll(o, procs, stdout, logf)
	case findWorkload(o.workload) != nil:
		err = runOne(o, stdout, stderr, logf)
	default:
		logf("need -all or -workload, one of: %s", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err != nil {
		logf("FAILED: %v", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// scratch makes a fresh directory for this invocation under buildDir.
func scratch() (string, error) {
	base := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// runOne is the pipeline's entry point: build the world, then run one
// workload in a child process, whose last line of output is the result.
// The child exists so that peak_rss_mb is the memory of serving the
// workload, not of building the indexes.
func runOne(o options, stdout, stderr io.Writer, logf func(string, ...any)) error {
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
	cmd, err := childCommand(o, o.workload, o.trace, world, shared)
	if err != nil {
		return err
	}
	cmd.Stdout, cmd.Stderr = stdout, stderr
	return cmd.Run()
}

// childCommand re-executes this binary to run one workload on a saved
// world.
func childCommand(o options, workload string, trace int, world string, shared worldSetup) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sh, err := json.Marshal(shared)
	if err != nil {
		return nil, err
	}
	return exec.Command(self, "-child", "-world", world, "-shared", string(sh),
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace)), nil
}

// report is the object on the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// extras is the line a child prints before its report: figures shown by
// -all that the pipeline's report has no place for.
type extras struct {
	Workload string             `json:"workload"`
	Trace    int                `json:"trace"`
	Digest   string             `json:"digest"`
	Extras   map[string]float64 `json:"extras"`
}

// runChild runs one workload on the saved world and prints the extras
// line and the report.
func runChild(o options, procs int, stdout io.Writer, logf func(string, ...any)) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	var shared worldSetup
	if err := json.Unmarshal([]byte(o.shared), &shared); err != nil {
		return fmt.Errorf("-shared: %w", err)
	}
	tmp, err := scratch()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{dir: o.world, tmp: tmp, seed: o.seed, seconds: time.Duration(o.seconds) * time.Second,
		procs: procs, shared: shared, logf: logf}

	rep := report{Metrics: map[string]metric{}}
	ex := extras{Workload: w.Name, Trace: o.trace}
	var specs []metricSpec
	var values map[string]float64
	if o.trace == 0 {
		res, err := w.run(e, w)
		if err != nil {
			return err
		}
		rep.Attempted, rep.Failed = res.Attempted, res.Failed
		specs, values, ex.Extras, ex.Digest = endToEnd, res.Metrics, res.Extras, res.Digest
	} else {
		// The traced run is the load run once more (the layer metrics that
		// are counter deltas, the generator's own figures, the set-up
		// split), then the traced pass over the same inputs.
		e.probes = true
		res, err := w.run(e, w)
		if err != nil {
			return err
		}
		tr, err := w.pass(e, w)
		if err != nil {
			return err
		}
		tr.Metrics = merge(res.Layers, tr.Metrics)
		tr.Guards = guards(w.Name, tr.Metrics)
		tr.Seed, tr.Digest = o.seed, res.Digest
		if err := tr.write(w.Name); err != nil {
			return err
		}
		rep.Attempted, rep.Failed = res.Attempted+tr.Attempted, res.Failed+tr.Failed+len(tr.Guards)
		for _, g := range tr.Guards {
			logf("INTENT GUARD: %s", g)
		}
		specs, values, ex.Extras, ex.Digest = perLayer, tr.Metrics, res.Extras, res.Digest
	}
	rep.Correct = rep.Failed == 0
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok && o.trace == 0 {
			return fmt.Errorf("workload %s did not measure %s", w.Name, s.Name)
		}
		rep.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	for name := range values {
		if _, ok := rep.Metrics[name]; !ok {
			return fmt.Errorf("workload %s measured %s, which spec.go does not declare", w.Name, name)
		}
	}
	logf("%s seed %d trace %d: load digest %s, %d attempted, %d failed", w.Name, o.seed, o.trace, ex.Digest, rep.Attempted, rep.Failed)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(ex); err != nil {
		return err
	}
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d failed the output check or an intent guard", w.Name, rep.Failed, rep.Attempted)
	}
	return nil
}
