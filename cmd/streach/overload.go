package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runOverload floods a running `streach serve` past its admission limit
// and reports what came back: status counts, latency quantiles, and —
// the overload-protection contract — whether any 5xx arrived without a
// typed error body. The report is written as JSON (the
// BENCH_overload.json artifact CI persists), with the server's
// self-protection gauges scraped from /metrics/prometheus appended so
// the artifact captures limiter and quota state too.
func runOverload(args []string) error {
	fs := flag.NewFlagSet("overload", flag.ExitOnError)
	base := fs.String("url", "http://localhost:8780", "base URL of a running streach serve")
	path := fs.String("path", "/v1/reach?start=11h&dur=10m&prob=0.2", "query path to flood")
	n := fs.Int("n", 200, "total requests")
	c := fs.Int("c", 16, "concurrent clients (open-loop-ish: each fires its next request immediately)")
	reqTimeout := fs.Duration("request-timeout", 10*time.Second, "per-request client timeout")
	out := fs.String("out", "", "write the JSON report to this file as well as stdout")
	failUntyped := fs.Bool("fail-on-untyped-5xx", false, "exit non-zero if any 5xx response lacks a typed error body")
	if err := fs.Parse(args); err != nil {
		return err
	}

	client := &http.Client{Timeout: *reqTimeout}
	var (
		mu        sync.Mutex
		statuses  = map[string]int{}
		latencies []time.Duration
		untyped   int
		issued    atomic.Int64
		wg        sync.WaitGroup
	)
	began := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for issued.Add(1) <= int64(*n) {
				t0 := time.Now()
				resp, err := client.Get(*base + *path)
				lat := time.Since(t0)
				if err != nil {
					mu.Lock()
					statuses["error"]++
					latencies = append(latencies, lat)
					mu.Unlock()
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				mu.Lock()
				statuses[strconv.Itoa(resp.StatusCode)]++
				latencies = append(latencies, lat)
				if resp.StatusCode >= 500 && !strings.Contains(string(body), `"code"`) {
					untyped++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(began)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quant := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(q * float64(len(latencies)-1))
		return float64(latencies[i]) / float64(time.Millisecond)
	}
	report := map[string]any{
		"path":        *path,
		"requests":    *n,
		"concurrency": *c,
		"elapsed_s":   elapsed.Seconds(),
		"rps":         float64(*n) / elapsed.Seconds(),
		"statuses":    statuses,
		"untyped_5xx": untyped,
		"latency_ms": map[string]float64{
			"p50": quant(0.50),
			"p90": quant(0.90),
			"p99": quant(0.99),
			"max": quant(1.0),
		},
	}
	if m := scrapeResilienceMetrics(client, *base); len(m) > 0 {
		report["metrics"] = m
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "overload: report written to %s\n", *out)
	}
	if *failUntyped && untyped > 0 {
		return fmt.Errorf("overload: %d untyped 5xx responses (want 0)", untyped)
	}
	return nil
}

// scrapeResilienceMetrics pulls the self-protection gauges and counters
// (admission limit, quota rejections, brownout sheds) off the
// server's Prometheus endpoint; best-effort, nil on any failure.
func scrapeResilienceMetrics(client *http.Client, base string) map[string]float64 {
	resp, err := client.Get(base + "/metrics/prometheus")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	keep := []string{
		"streach_admission_limit", "streach_admission_inflight",
		"streach_admission_rejected_total", "streach_quota_rejections_total",
		"streach_brownout_warm_shed_total",
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, k := range keep {
			if strings.HasPrefix(line, k) {
				name, val, ok := strings.Cut(line, " ")
				if !ok {
					continue
				}
				if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
					out[name] = f
				}
			}
		}
	}
	return out
}
