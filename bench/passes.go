package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"streach"
	"streach/internal/serve"
)

// Traced-pass sizes. The pass runs one client over a fixed number of the
// workload's generated inputs (per second of -seconds), so that its
// counts repeat exactly and it ends within about -seconds.
const (
	widePassPerSecond  = 12
	coldPassPerSecond  = 20
	mixedPassPerSecond = 40
	hotPassPerSecond   = 400
)

// twins opens the two systems of a traced pass from one directory and
// warms both alike.
func twins(w *workload, dir string) (sys, ref *streach.System, err error) {
	open := func() (*streach.System, error) {
		s, err := streach.OpenSystem(dir, indexConfig())
		if err != nil {
			return nil, err
		}
		if w.WarmFor > 0 {
			if err := s.WarmCtx(context.Background(), w.WarmFrom, w.WarmFor); err != nil {
				s.Close()
				return nil, err
			}
		}
		return s, nil
	}
	if sys, err = open(); err != nil {
		return nil, nil, err
	}
	if ref, err = open(); err != nil {
		sys.Close()
		return nil, nil, err
	}
	return sys, ref, nil
}

// directPass runs the first n of qs through the traced pipeline on twin
// systems opened from dir, then the micro-probes.
func directPass(e *env, w *workload, dir string, smp *sampler, qs []query, n int, sharded bool) (*traced, error) {
	sys, ref, err := twins(w, dir)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	defer ref.Close()
	if n > len(qs) {
		n = len(qs)
	}
	p := &pipeline{tr: newTracer(), sys: sys, ref: ref}
	for i := 0; i < n; i++ {
		if err := p.query(i, qs[i]); err != nil {
			return nil, err
		}
	}
	m := p.metrics()
	probes, err := microProbes(sys, p.keys, smp.rng)
	if err != nil {
		return nil, err
	}
	merge(m, probes)
	if sharded {
		sh, err := shardProbe(p, qs)
		if err != nil {
			return nil, err
		}
		merge(m, sh)
		p.mismatches += int(sh["shard.mismatches"])
	}
	if p.mismatches > 0 {
		e.logf("traced pipeline: %d of %d answers differ from System.Do", p.mismatches, n)
	}
	return &traced{Attempted: n, Failed: p.mismatches, Metrics: m, Spans: p.tr.spans}, nil
}

func passWide(e *env, w *workload) (*traced, error) {
	smp := newSampler(e.seed, w.Name, e.pool)
	qs := wideInputs(smp, e.seconds)
	return directPass(e, w, e.dir, smp, qs, widePassPerSecond*int(e.seconds.Seconds()), true)
}

func passCold(e *env, w *workload) (*traced, error) {
	smp := newSampler(e.seed, w.Name, e.pool)
	qs := coldInputs(smp, e.seconds)
	return directPass(e, w, e.dir, smp, qs, coldPassPerSecond*int(e.seconds.Seconds()), false)
}

// passMixed traces the reader's queries on the crash copy the load run
// left behind: the recovered system holds the blast in its delta layer,
// so verification merges base and delta lists as it did beside the
// ingest.
func passMixed(e *env, w *workload) (*traced, error) {
	smp := newSampler(e.seed, w.Name, e.pool)
	in := drawMixedInputs(smp, e.seconds, e.segments)
	return directPass(e, w, e.crashedDir(), smp, in.reads, mixedPassPerSecond*int(e.seconds.Seconds()), false)
}

// passHot traces http-hot's request stream, one client, in order, on
// twin systems: the handler pass calls Handler().ServeHTTP on one, the
// direct pass calls System.Do and Region.GeoJSON on the other. Both see
// the same requests in the same order from the same initial state, so
// their plan caches evolve alike and request i is a plan hit on both or
// on neither. A request's root span wraps the handler call; the twin's
// do and encode spans hang under the handler span, and what they leave of
// it is the serving layer's self time (routing, parsing, the coalescer,
// the JSON encoder, writing the reply).
func passHot(e *env, w *workload) (*traced, error) {
	sys, ref, err := twins(w, e.dir)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	defer ref.Close()
	smp := newSampler(e.seed, w.Name, e.pool)
	qs, shapes := hotInputs(smp, e.seconds)
	qs = qs[:hotPassPerSecond*int(e.seconds.Seconds())]
	srv := serve.New(sys, serve.Config{})
	defer srv.Close()
	handler := srv.Handler()

	ctx := context.Background()
	for _, q := range shapes { // the load run's warm-up, on both twins
		req, err := httpRequest("", q)
		if err != nil {
			return nil, err
		}
		handler.ServeHTTP(httptest.NewRecorder(), req)
		if _, err := ref.Do(ctx, q.Req); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	var (
		hitMS, missMS      durs
		verify             time.Duration
		segBytes, segments []float64
		mismatches         int
	)
	for i, q := range qs {
		req, err := httpRequest("", q)
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		root := tr.start("request", 0, i)
		span := tr.start("serve.handler", root, i)
		handler.ServeHTTP(rec, req)
		tr.end(span)
		tr.end(root)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("handler pass %d: status %d: %.120s", i, rec.Code, rec.Body.String())
		}

		hits := ref.SharingStats().PlanCacheHits
		var r *streach.Region
		do := tr.call("streach.do", span, i, func() { r, err = ref.Do(ctx, q.Req) })
		if err != nil {
			return nil, fmt.Errorf("direct pass %d: %w", i, err)
		}
		if ref.SharingStats().PlanCacheHits > hits {
			hitMS = append(hitMS, do)
		} else {
			// Only a plan miss verifies; a hit's Metrics repeat what its
			// plan cost when it was built.
			missMS = append(missMS, do)
			verify += r.Metrics.Verify
		}
		if q.GeoJSON {
			var gj string
			tr.call("geojson.encode", span, i, func() { gj, err = r.GeoJSON() })
			if err != nil {
				return nil, err
			}
			if len(r.SegmentIDs) > 0 {
				segBytes = append(segBytes, float64(len(gj))/float64(len(r.SegmentIDs)))
			}
		}
		segments = append(segments, float64(len(r.SegmentIDs)))

		d, err := replyDiffers(rec.Body.Bytes(), q, r)
		if err != nil {
			return nil, fmt.Errorf("handler pass %d: %w", i, err)
		}
		if d != "" {
			mismatches++
		}
	}
	by := byName(tr.spans)
	handled := by["serve.handler"]
	var self durs // what the twin's do and encode spans leave of each handler span
	for id, d := range selfTimes(tr.spans) {
		if tr.spans[id-1].Name == "serve.handler" {
			self = append(self, d)
		}
	}
	m := map[string]float64{
		"serve.handler_ms":          handled.p(50, ms),
		"serve.handler_p95_ms":      handled.p(95, ms),
		"serve.self_ms":             self.p(50, ms),
		"geojson.encode_ms":         by["geojson.encode"].p(50, ms),
		"geojson.encode_p95_ms":     by["geojson.encode"].p(95, ms),
		"geojson.bytes_per_segment": median(segBytes),
		"streach.do_ms":             by["streach.do"].p(50, ms),
		"streach.do_p95_ms":         by["streach.do"].p(95, ms),
		"streach.plan_hit_ms":       hitMS.p(50, ms),
		"streach.plan_miss_ms":      missMS.p(50, ms),
		"core.region_segments":      median(segments),
		"core.verify_share":         ratio(float64(verify), float64(handled.sum())),
		"trace.requests":            float64(len(handled)),
		"trace.coverage":            coverage(tr.spans),
		"trace.base_p50_ms":         by["streach.do"].p(50, ms),
		"trace.overhead_ratio":      ratio(handled.p(50, ms), by["streach.do"].p(50, ms)),
	}
	if mismatches > 0 {
		e.logf("handler pass: %d of %d replies differ from System.Do", mismatches, len(qs))
	}
	return &traced{Attempted: len(qs), Failed: mismatches, Metrics: m, Spans: tr.spans}, nil
}
