package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streach"
	"streach/internal/serve"
)

// runServe builds (or reopens) a query system and serves it over HTTP:
// JSON/GeoJSON reachability queries on /v1/reach, route planning on
// /v1/route, liveness on /healthz, and cumulative query metrics on
// /metrics. Request deadlines (-timeout, client ?timeout=, capped by
// -max-timeout) map straight onto the query contexts, so a slow query is
// abandoned at the deadline instead of holding the worker pool.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	wf := addWorldFlags(fs)
	addr := fs.String("addr", ":8780", "listen address")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-request query deadline")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "cap on client-requested ?timeout=")
	maxInFlight := fs.Int("max-inflight", 0, "adaptive admission ceiling: max concurrent query requests, 429 beyond; overload shrinks the limit to no less than a quarter of it (0 = default 64, negative = unlimited)")
	clientRPS := fs.Float64("client-rps", 0, "per-client token-bucket quota in requests/second, 2x as deep, keyed by X-API-Key or peer host (0 = off)")
	shards := fs.Int("shards", 0, "sharded execution: partition the network across this many engines and answer by scatter-gather (0/1 = single engine; results are bit-identical)")
	warmPlans := fs.Int("warm-plans", 0, "warm-plan pipeline: re-plan this many of the hottest recorded query shapes in the background after open and after each compaction epoch swap; grows the plan cache to hold them (0 = off)")
	accessLog := fs.Bool("access-log", false, "log one line per request (method, URI, status, latency, request ID) to stderr")
	ingestOn := fs.Bool("ingest", false, "enable live ingestion: POST /v1/ingest accepts position updates, /v1/ingest/compact folds the delta layer")
	compactEvery := fs.Duration("compact-every", 0, "background incremental compaction period (0 = manual compaction only)")
	compactBudget := fs.Duration("compact-pause-budget", 0, "install-pause budget the background loop adapts its per-cycle key cap (starting at 4096) toward (0 = no adaptation)")
	warmStart := fs.Duration("warm-start", 0, "precompute the Con-Index adjacency from this time of day (with -warm-dur)")
	warmDur := fs.Duration("warm-dur", 0, "warm window length (0 = skip warming)")
	dir := fs.String("dir", "", "system save directory: reopened when it holds a saved system")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sys, err := loadOrBuildSystem(wf, *dir, false, 0, 0)
	if err != nil {
		return err
	}
	defer sys.Close()
	if *shards > 1 {
		if err := sys.Shard(*shards); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sharded execution: %d partitioned engines\n", sys.Shards())
	}
	// Ingest starts after sharding so the writer's per-shard routing sees
	// the cluster partition.
	if *ingestOn {
		if err := sys.StartIngest(streach.IngestConfig{
			CompactInterval:    *compactEvery,
			CompactPauseBudget: *compactBudget,
		}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "live ingest enabled (POST /v1/ingest)")
		if *compactEvery > 0 {
			fmt.Fprintf(os.Stderr, "background incremental compaction every %v\n", *compactEvery)
		}
	}
	if *warmPlans > 0 {
		sys.EnableWarmPlanning(*warmPlans)
		fmt.Fprintf(os.Stderr, "warm-plan pipeline enabled (top %d shapes)\n", *warmPlans)
	}
	if *warmDur > 0 {
		t0 := time.Now()
		if err := sys.WarmCtx(context.Background(), *warmStart, *warmDur); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "warmed con-index for [%v, %v] in %.1fs\n",
			*warmStart, *warmStart+*warmDur, time.Since(t0).Seconds())
	}

	cfg := serve.Config{
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxInFlight:    *maxInFlight,
		ClientRPS:      *clientRPS,
	}
	if *accessLog {
		cfg.AccessLog = log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	}
	handler := serve.New(sys, cfg)
	defer handler.Close()
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler.Handler(),
	}

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, let in-flight
	// requests drain (their own deadlines bound the wait).
	idle := make(chan error, 1)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), *maxTimeout)
		defer cancel()
		idle <- srv.Shutdown(ctx)
	}()

	fmt.Fprintf(os.Stderr, "serving on %s (deadline %v, max %v)\n", *addr, *timeout, *maxTimeout)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-idle
}
