package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"streach"
	"streach/internal/ingest"
	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/traj"
)

const (
	// mixRate is the update rate beside the reader, in updates per second,
	// sent in mixBatch-sized Ingest calls by one producer.
	mixRate  = 5000
	mixBatch = 250
	// blastUpdates is the fixed size of the no-reader ingest blast.
	blastUpdates = 100_000
	// mixCompactEvery is the background compaction loop's interval, and
	// compactKeys the per-cycle key budget of the explicit cycles between
	// phases (the loop's own default).
	mixCompactEvery = time.Second
	compactKeys     = 4096
	// mixPerSecond bounds how many reader queries are generated per second
	// of timed phase; the closed loop uses as many as it gets to.
	mixPerSecond = 1000
	// recoverQueries is the size of the fixed query set asked of both the
	// live and the recovered system.
	recoverQueries = 20
)

// mixedInputs is everything ingest-mixed generates from the seed.
type mixedInputs struct {
	reads []query                // the reader's distinct queries
	dues  []time.Duration        // when each Ingest call is due
	ups   []streach.IngestUpdate // mixBatch per due time
	blast []streach.IngestUpdate
	fixed []query // asked of the live and the recovered system
}

func drawMixedInputs(smp *sampler, seconds time.Duration, segments int) mixedInputs {
	var in mixedInputs
	in.reads = smp.distinct(mixPerSecond*int(seconds.Seconds()), mixFrom, mixSpan, mixDur, 0)
	in.dues = make([]time.Duration, int(seconds.Seconds())*mixRate/mixBatch)
	for i := range in.dues {
		in.dues[i] = time.Duration(i) * time.Second * mixBatch / mixRate
	}
	in.ups = smp.updates(len(in.dues)*mixBatch, segments)
	in.blast = smp.updates(blastUpdates, segments)
	in.fixed = smp.distinct(recoverQueries, mixFrom, mixSpan, mixDur, 0)
	return in
}

// mixedRun is everything the three phases of ingest-mixed measured.
type mixedRun struct {
	reads        timed // the reader's closed loop beside the ingest
	acks         load  // the producer's open loop of Ingest calls
	sent         int   // updates handed to Ingest in phase (a)
	stats        streach.IngestStats
	deltaKeys    []float64 // dirty delta keys, sampled while ingesting
	compactKeys  int       // explicit budgeted compaction cycles between (a) and (b)
	compactS     float64
	compactPause time.Duration // the longest install pause among them
	blastS       float64       // phase (b): blastUpdates sent and flushed
	blastBytes   float64       // bytes this process wrote during the blast
	recoveryS    float64       // phase (c): OpenSystem on the crash copy
	mismatches   int           // phase (c): answers that differ between live and recovered
	visits       int64
	probes       map[string]float64
}

// crashedDir is where phase (c) leaves the crash copy; the traced pass
// opens its two systems from it.
func (e *env) crashedDir() string { return filepath.Join(e.tmp, "crashed") }

// mixedPhases runs ingest-mixed's three phases on a private copy of the
// world. The returned opened world is already closed.
func mixedPhases(e *env, w *workload) (*opened, *mixedRun, error) {
	ctx := context.Background()
	live := filepath.Join(e.tmp, "live")
	t0 := time.Now()
	if err := copyDir(e.dir, live); err != nil {
		return nil, nil, err
	}
	e.preS = time.Since(t0).Seconds()
	o, err := e.open(w, live)
	if err != nil {
		return nil, nil, err
	}
	sys := o.sys
	defer func() {
		if sys != nil {
			sys.Close()
		}
	}()
	if err := sys.StartIngest(streach.IngestConfig{CompactInterval: mixCompactEvery}); err != nil {
		return nil, nil, err
	}
	in := drawMixedInputs(o.smp, e.seconds, sys.Network().NumSegments())
	run := &mixedRun{sent: len(in.ups)}

	// (a) Fixed-rate ingest beside one closed-loop reader. The reader
	// stops with the window; the producer sends its whole schedule.
	var wg sync.WaitGroup
	stopSampling := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				run.deltaKeys = append(run.deltaKeys, float64(sys.IngestStats().DirtyKeys))
			}
		}
	}()
	go func() {
		defer wg.Done()
		run.acks = runOpen(in.dues, 1, func(i int) error {
			return sys.Ingest(ctx, in.ups[i*mixBatch:(i+1)*mixBatch])
		})
	}()
	run.reads = timePhase(sys, func() load {
		return runClosed(1, e.seconds, len(in.reads), func(i int) error {
			_, err := sys.Do(ctx, in.reads[i].Req)
			return err
		})
	})
	close(stopSampling)
	wg.Wait()
	if err := sys.FlushIngest(ctx); err != nil {
		return nil, nil, err
	}
	run.stats = sys.IngestStats()

	// (b) Reopen without the compaction loop, fold everything in budgeted
	// cycles so that the WAL is empty, then time the blast.
	if err := closeAndFree(sys); err != nil {
		return nil, nil, err
	}
	if sys, err = streach.OpenSystem(live, indexConfig()); err != nil {
		return nil, nil, err
	}
	if err := sys.StartIngest(streach.IngestConfig{}); err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	for {
		res, err := sys.CompactIngestN(ctx, compactKeys)
		if err != nil {
			return nil, nil, err
		}
		run.compactKeys += res.Keys
		if res.Pause > run.compactPause {
			run.compactPause = res.Pause
		}
		if res.Remaining == 0 {
			break
		}
	}
	run.compactS = time.Since(t0).Seconds()
	wrote, err := bytesWritten()
	if err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	for i := 0; i < len(in.blast); i += mixBatch {
		if err := sys.Ingest(ctx, in.blast[i:i+mixBatch]); err != nil {
			return nil, nil, err
		}
	}
	if err := sys.FlushIngest(ctx); err != nil {
		return nil, nil, err
	}
	run.blastS = time.Since(t0).Seconds()
	wroteAfter, err := bytesWritten()
	if err != nil {
		return nil, nil, err
	}
	run.blastBytes = wroteAfter - wrote
	if st := sys.IngestStats(); st.Applied != blastUpdates || st.Dropped != 0 {
		return nil, nil, fmt.Errorf("blast: applied %d of %d, dropped %d", st.Applied, blastUpdates, st.Dropped)
	}

	// (c) Copy the directory as a crash would leave it (no Close: the WAL
	// holds exactly the blast), reopen the copy, and compare answers.
	if err := copyDir(live, e.crashedDir()); err != nil {
		return nil, nil, err
	}
	want := make([]*answer, len(in.fixed))
	for i, q := range in.fixed {
		if want[i], err = reference(sys, q.Req); err != nil {
			return nil, nil, err
		}
	}
	// Close the live system before opening the copy, so that peak_rss_mb
	// is one system's memory, not two.
	err = closeAndFree(sys)
	sys = nil
	if err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	rec, err := streach.OpenSystem(e.crashedDir(), indexConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("recover: %w", err)
	}
	run.recoveryS = time.Since(t0).Seconds()
	defer rec.Close()
	for i, q := range in.fixed {
		got, err := reference(rec, q.Req)
		if err != nil {
			return nil, nil, err
		}
		if d := got.differs(want[i]); d != "" {
			e.logf("recovered answer %d differs from live: %s", i, d)
			run.mismatches++
		}
	}
	run.visits = int64(e.shared.Visits) + run.stats.Applied + blastUpdates
	if e.probes {
		if run.probes, err = ingestProbes(e, rec, in.blast); err != nil {
			return nil, nil, err
		}
	}
	return o, run, nil
}

// bytesWritten reads how many bytes this process has passed to write
// calls so far.
func bytesWritten() (float64, error) { return procField("/proc/self/io", "wchar") }

// ingestProbes times single calls into the write path's layers on the
// recovered system, whose answers have been compared by now: replaying
// the crash copy's WAL once more (idempotent), appending a batch to a
// fresh segmented log, and applying updates and raw delta observations
// directly.
func ingestProbes(e *env, rec *streach.System, blast []streach.IngestUpdate) (map[string]float64, error) {
	st, con := rec.Engine().STIndex(), rec.Engine().ConIndex()
	t0 := time.Now()
	if _, err := ingest.ReplaySegments(filepath.Join(e.crashedDir(), "wal"), e.procs,
		func(batch []ingest.Update) error { ingest.ApplyBatch(st, con, batch); return nil },
		func(obs []stindex.DeltaObs) error { ingest.ApplyObs(st, obs); return nil }); err != nil {
		return nil, fmt.Errorf("replay probe: %w", err)
	}
	replayS := time.Since(t0).Seconds()

	const probeUpdates = 20_000
	batch := make([]ingest.Update, probeUpdates)
	obs := make([]stindex.DeltaObs, probeUpdates)
	for i, u := range blast[:probeUpdates] {
		// A third fleet, so that the probes append observations the delta
		// layer does not hold yet.
		taxi := traj.TaxiID(u.TaxiID + 1000)
		batch[i] = ingest.Update{Taxi: taxi, Day: traj.Day(u.Day), Seg: roadnet.SegmentID(u.SegmentID),
			EnterMs: u.EnterMs, ExitMs: u.ExitMs, Speed: u.SpeedMps}
		obs[i] = stindex.DeltaObs{Seg: batch[i].Seg, Slot: int(u.EnterMs) / 1000 / st.SlotSeconds(),
			Day: batch[i].Day, Taxi: taxi + 1000}
	}
	wal, err := ingest.OpenSegmented(filepath.Join(e.tmp, "walprobe"), ingest.SegmentedConfig{})
	if err != nil {
		return nil, err
	}
	// usPer times fn over the probe's batches, in microseconds per item.
	usPer := func(fn func(lo, hi int) error) (float64, error) {
		t0 := time.Now()
		for i := 0; i < probeUpdates; i += mixBatch {
			if err := fn(i, i+mixBatch); err != nil {
				return 0, err
			}
		}
		return us(time.Since(t0)) / probeUpdates, nil
	}
	walUS, err := usPer(func(lo, hi int) error { return wal.AppendUpdates(0, batch[lo:hi]) })
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	applyUS, err := usPer(func(lo, hi int) error {
		if applied, _ := ingest.ApplyBatch(st, con, batch[lo:hi]); applied != hi-lo {
			return fmt.Errorf("apply probe: %d of %d applied", applied, hi-lo)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	deltaUS, err := usPer(func(lo, hi int) error { return st.AppendDelta(obs[lo:hi]) })
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"ingest.replay_updates_per_s":     blastUpdates / replayS,
		"ingest.wal_append_us_per_update": walUS,
		"ingest.apply_us_per_update":      applyUS,
		"stindex.append_delta_us_per_obs": deltaUS,
	}, nil
}

// failures counts what the output check of ingest-mixed holds against
// the run: reader errors, updates not applied or dropped, and recovered
// answers that differ from live ones.
func (r *mixedRun) failures() int {
	lost := r.sent - int(r.stats.Applied)
	if lost < 0 {
		lost = -lost
	}
	return r.reads.errors() + r.acks.errors() + lost + int(r.stats.Dropped) + r.mismatches
}

func runMixed(e *env, w *workload) (*result, error) {
	o, run, err := mixedPhases(e, w)
	if err != nil {
		return nil, err
	}
	res, err := e.summarise(o, run.reads, 0, filepath.Join(e.tmp, "live"), run.visits)
	if err != nil {
		return nil, err
	}
	res.Failed = run.failures()
	res.Attempted = len(run.reads.Ops) + recoverQueries
	res.Extras["error_share"] = float64(res.Failed) / float64(res.Attempted)
	res.Extras["ingest_obs_per_s"] = blastUpdates / run.blastS
	res.Extras["recovery_s"] = run.recoveryS
	sort.Float64s(run.deltaKeys)
	merge(res.Layers, run.probes, map[string]float64{
		"gen.failed":                    float64(res.Failed),
		"gen.lag_p95_ms":                run.acks.lags().p(95, ms),
		"ingest.ack_p95_ms":             run.acks.latencies().p(95, ms),
		"ingest.rejected":               float64(run.stats.Rejected),
		"ingest.dropped":                float64(run.stats.Dropped),
		"ingest.write_bytes_per_update": run.blastBytes / blastUpdates,
		"ingest.blast_obs_per_s":        blastUpdates / run.blastS,
		"ingest.recovery_s":             run.recoveryS,
		"stindex.compact_pause_max_ms":  ms(run.compactPause),
		"stindex.compact_keys_per_s":    ratio(float64(run.compactKeys), run.compactS),
		"stindex.delta_keys_p95":        percentile(run.deltaKeys, 95),
	})
	return res, nil
}
