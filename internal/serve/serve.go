// Package serve exposes a built streach.System over HTTP: JSON (or
// GeoJSON) reachability and route queries on /v1/reach and /v1/route, a
// /healthz probe, and metrics on /metrics (expvar JSON) and
// /metrics/prometheus (text exposition format with per-endpoint latency
// histograms and batch-sharing counters).
//
// Every request runs under a deadline: the server derives a per-request
// context from Config.DefaultTimeout (clients may lower — never raise
// past Config.MaxTimeout — it with a ?timeout= parameter), and that
// context rides System.Do all the way into the engine's cancellation
// checkpoints. A client that disconnects or a deadline that expires
// stops the query mid-flight instead of burning the worker pool on an
// answer nobody will read.
//
// Three traffic-shaping layers sit in front of the engine. Per-client
// token-bucket quotas (Config.ClientRPS) fence off overeager clients
// first. Adaptive admission bounds the in-flight query count with an
// AIMD limiter that starts at Config.MaxInFlight and converges on what
// the engine sustains within its deadlines (admission.go); occupancy
// drives a brownout ladder — shed prefetch work, then reject with 429 +
// an honest Retry-After derived from the limiter state. A sharded
// system fails a query exactly as the unsharded one does, so a reply
// is always the whole answer or a typed error. Singleflight
// coalescing merges concurrent identical queries into one execution
// (coalesce.go), the serving-layer mirror of DoBatch's group-and-plan
// scheduler: a burst of duplicate-heavy traffic reaches the engine once
// per distinct query.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streach"
)

// Config tunes the server. The zero value serves with 10 s request
// deadlines capped at 30 s and up to 64 in-flight queries.
type Config struct {
	// DefaultTimeout is the per-request query deadline when the client
	// does not send ?timeout= (default 10 s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (default 30 s).
	MaxTimeout time.Duration
	// MaxInFlight is the ceiling on concurrently admitted query
	// requests — the AIMD limiter's starting point and maximum, with
	// MaxInFlight/4 (at least 1) its floor; excess requests are rejected
	// immediately with 429 and a Retry-After header instead of queueing
	// behind a saturated engine. 0 means the default (64); negative
	// disables admission control.
	MaxInFlight int
	// ClientRPS, when positive, enforces a per-client token-bucket
	// quota of this many requests per second, 2×ClientRPS (at least 1)
	// deep, keyed by X-API-Key, else peer host, in front of global
	// admission. 0 disables quotas.
	ClientRPS float64
	// AccessLog, when set, receives one line per request (method, URI,
	// status, latency, request ID) plus panic reports. nil disables
	// access logging.
	AccessLog *log.Logger
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	return c
}

// Server answers HTTP queries over one built system.
type Server struct {
	sys *streach.System
	cfg Config
	// vars accumulates the existing query Metrics counters across
	// requests in an expvar.Map (not globally published, so multiple
	// servers in one process — tests — don't collide); /metrics renders
	// its canonical expvar JSON.
	vars expvar.Map
	// lim is the adaptive admission gate: one slot per in-flight query
	// request, AIMD-adjusted between MaxInFlight/4 and MaxInFlight (nil
	// = unlimited).
	lim *aimdLimiter
	// quota is the per-client token-bucket table (nil = no quotas).
	quota *quotas
	// flights coalesces concurrent identical queries into one execution.
	flights *coalescer
	// hist holds the per-endpoint latency histograms the Prometheus
	// rendering of /metrics exposes.
	hist map[string]*histogram
	// Background prefetch lifecycle: warmBusy keeps at most one warm in
	// flight, baseCtx/stop and wg bound it to the server's lifetime so
	// Close leaves no goroutine behind.
	warmBusy atomic.Bool
	baseCtx  context.Context
	stop     context.CancelFunc
	wg       sync.WaitGroup
}

// New wraps a built system in a server. Call Close when done to stop
// background prefetch work.
func New(sys *streach.System, cfg Config) *Server {
	s := &Server{sys: sys, cfg: cfg.withDefaults(), flights: newCoalescer()}
	s.vars.Init()
	if s.cfg.MaxInFlight > 0 {
		s.lim = newLimiter(s.cfg.MaxInFlight)
	}
	if s.cfg.ClientRPS > 0 {
		s.quota = newQuotas(s.cfg.ClientRPS)
	}
	s.hist = make(map[string]*histogram, len(endpoints))
	for _, ep := range endpoints {
		s.hist[ep] = newHistogram()
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	return s
}

// Close stops the server's background work (prefetch warms) and waits
// for it to exit. Idempotent.
func (s *Server) Close() {
	s.stop()
	s.wg.Wait()
}

// Handler returns the route table, wrapped in the request-ID /
// access-log / panic-recovery middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics/prometheus", s.handlePrometheus)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/v1/reach", s.handleReach)
	mux.HandleFunc("/v1/route", s.handleRoute)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/ingest/compact", s.handleIngestCompact)
	return s.middleware(mux)
}

// admit claims an admission slot; shed reports that the request's
// background work is to be shed, !ok means the limiter is full.
func (s *Server) admit() (ok, shed bool) {
	if s.lim == nil {
		return true, false
	}
	return s.lim.admit()
}

// acquire claims an admission slot without brownout context; false
// means the server is saturated. Paired with release.
func (s *Server) acquire() bool {
	ok, _ := s.admit()
	return ok
}

// release returns an acquire'd slot without latency feedback.
func (s *Server) release() {
	if s.lim != nil {
		s.lim.releaseIdle()
	}
}

// finish returns an admitted request's slot with its outcome, feeding
// the AIMD limiter: deadline failures shrink the admitted concurrency,
// comfortable completions grow it back.
func (s *Server) finish(lat, deadline time.Duration, err error) {
	if s.lim == nil {
		return
	}
	deadlineHit := err != nil &&
		(errors.Is(err, context.DeadlineExceeded) || streach.CodeOf(err) == streach.Timeout)
	s.lim.release(lat, deadline, deadlineHit)
}

// reject answers a saturated-server request: 429 with a Retry-After
// derived from the limiter state (how long until a slot plausibly
// frees), so well-behaved clients back off for about the right time
// instead of a fixed guess.
func (s *Server) reject(w http.ResponseWriter, r *http.Request) {
	s.vars.Add("admission_rejected_total", 1)
	retry := time.Second
	if s.lim != nil {
		retry = s.lim.retryAfter()
	}
	s.rejectWith(w, r, retry, "server at capacity; retry later")
}

// rejectQuota answers a client that exhausted its token bucket.
func (s *Server) rejectQuota(w http.ResponseWriter, r *http.Request, retry time.Duration) {
	s.vars.Add("quota_rejections_total", 1)
	if retry < time.Second {
		retry = time.Second
	}
	s.rejectWith(w, r, retry, "client quota exceeded; retry later")
}

func (s *Server) rejectWith(w http.ResponseWriter, r *http.Request, retry time.Duration, msg string) {
	s.recordError(http.StatusTooManyRequests)
	w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":      msg,
		"code":       streach.Overloaded.String(),
		"request_id": RequestID(r.Context()),
	})
}

// allowClient enforces the per-client quota; a false return has already
// written the 429.
func (s *Server) allowClient(w http.ResponseWriter, r *http.Request) bool {
	if s.quota == nil {
		return true
	}
	ok, retry := s.quota.allow(clientKey(r), time.Now())
	if !ok {
		s.rejectQuota(w, r, retry)
	}
	return ok
}

// maybePrefetch warms the Con-Index window following an answered query
// in the background — forward and reverse rows, so a reverse query over
// the next window is a pure lookup too — the cheapest work there is, and
// therefore the first thing the brownout ladder sheds. It asks first
// whether that window is already warm (a few loads per slot): on a warm
// system, the steady state, an answer takes no gate and starts no
// goroutine. At most one warm runs at a time, bounded to the server's
// lifetime (Close); prefetch_warms_total counts the passes that ran.
func (s *Server) maybePrefetch(start, dur time.Duration, shed bool) {
	if shed {
		s.vars.Add("brownout_warm_shed_total", 1)
		return
	}
	slot := time.Duration(s.sys.Stats().SlotSeconds) * time.Second
	if s.sys.Warmed(start+dur, slot) {
		return
	}
	if !s.warmBusy.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.warmBusy.Store(false)
		if s.sys.WarmCtx(s.baseCtx, start+dur, slot) == nil {
			s.vars.Add("prefetch_warms_total", 1)
		}
	}()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.sys.Stats()
	resp := map[string]any{
		"status":       "ok",
		"segments":     st.Segments,
		"road_km":      st.RoadKm,
		"taxis":        st.Taxis,
		"days":         st.Days,
		"slot_seconds": st.SlotSeconds,
		"shards":       s.sys.Shards(),
	}
	// Durability state: "ok" while the ingest WAL is keeping up,
	// "degraded" while appends are failing (updates stay live but are
	// not crash-durable), "none" without a WAL-backed ingest writer. It
	// is the only thing that makes status "degraded".
	ist := s.sys.IngestStats()
	switch {
	case ist.DurabilityDegraded:
		resp["durability"] = "degraded"
		resp["durability_error"] = ist.WALLastError
		resp["status"] = "degraded"
	case ist.WALEnabled:
		resp["durability"] = "ok"
	default:
		resp["durability"] = "none"
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, s.vars.String())
}

// handlePrometheus renders the same counters — plus the per-endpoint
// latency histograms and batch-sharing counters — in the Prometheus text
// exposition format (dependency-free; see prometheus.go).
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writePrometheus(w)
}

// record folds one answered query's Metrics into the cumulative counters.
func (s *Server) record(kind string, m streach.Metrics) {
	s.vars.Add("requests_total", 1)
	s.vars.Add("requests_"+kind, 1)
	s.vars.Add("segments_evaluated", int64(m.Evaluated))
	s.vars.Add("page_reads", m.PageReads)
	s.vars.Add("page_hits", m.PageHits)
	s.vars.Add("tlcache_hits", m.TLCacheHits)
	s.vars.Add("tlcache_misses", m.TLCacheMisses)
	s.vars.Add("con_rows_materialised", m.ConMaterialised)
	s.vars.Add("con_row_hits", m.ConHits)
	s.vars.Add("elapsed_ns", int64(m.Elapsed))
	s.vars.Add("bound_ns", int64(m.Bound))
	s.vars.Add("verify_ns", int64(m.Verify))
}

// recordShared counts a request answered from a coalesced execution: the
// engine-cost counters stay with the leader that actually paid them.
func (s *Server) recordShared(kind string) {
	s.vars.Add("requests_total", 1)
	s.vars.Add("requests_"+kind, 1)
	s.vars.Add("coalesced_total", 1)
}

// observe feeds one answered request into its endpoint's latency
// histogram.
func (s *Server) observe(kind string, d time.Duration) {
	if h, ok := s.hist[kind]; ok {
		h.observe(d)
	}
}

func (s *Server) recordError(status int) {
	s.vars.Add("errors_total", 1)
	s.vars.Add("errors_"+strconv.Itoa(status), 1)
}

// statusOf maps a query failure to an HTTP status: context sentinels
// and the location-snap miss first (a missing road is 404, not the 400
// its InvalidRequest marking would suggest), then the typed streach
// error taxonomy, then the legacy message heuristics for errors that
// predate it.
func statusOf(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log line only.
		return 499
	case strings.Contains(err.Error(), "no road"):
		return http.StatusNotFound
	}
	switch streach.CodeOf(err) {
	case streach.InvalidRequest:
		return http.StatusBadRequest
	case streach.Timeout:
		return http.StatusGatewayTimeout
	case streach.Overloaded:
		return http.StatusTooManyRequests
	case streach.CorruptData, streach.Internal:
		return http.StatusInternalServerError
	}
	switch {
	case strings.Contains(err.Error(), "must be"),
		strings.Contains(err.Error(), "needs"),
		strings.Contains(err.Error(), "does not answer"),
		strings.Contains(err.Error(), "has no multi-location"):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// httpError answers a failed query: typed status, and an error body
// carrying the machine-readable code and the request ID.
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, err error) {
	status := statusOf(err)
	s.recordError(status)
	writeJSON(w, status, map[string]any{
		"error":      err.Error(),
		"code":       streach.CodeOf(err).String(),
		"request_id": RequestID(r.Context()),
	})
}

func (s *Server) badRequest(w http.ResponseWriter, r *http.Request, format string, args ...any) {
	s.recordError(http.StatusBadRequest)
	writeJSON(w, http.StatusBadRequest, map[string]any{
		"error":      fmt.Sprintf(format, args...),
		"code":       streach.InvalidRequest.String(),
		"request_id": RequestID(r.Context()),
	})
}

// queryCtx derives the per-request deadline context: the default server
// timeout, or the client's ?timeout= capped at MaxTimeout. The cap
// applies only to client-requested timeouts — the operator's configured
// default is honoured as-is. The effective timeout is returned too: it
// is the deadline budget the AIMD limiter measures headroom against.
// param is the request's ?timeout= value ("" when absent).
func (s *Server) queryCtx(r *http.Request, param string) (context.Context, context.CancelFunc, time.Duration, error) {
	timeout := s.cfg.DefaultTimeout
	if param != "" {
		d, err := time.ParseDuration(param)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("bad timeout %q: %v", param, err)
		}
		if d <= 0 {
			return nil, nil, 0, fmt.Errorf("timeout must be positive, got %v", d)
		}
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
		timeout = d
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, timeout, nil
}

// reachPayload is the POST body of /v1/reach; GET requests carry the
// same fields as URL parameters. Lat/Lng are pointers so an explicit
// lat=0&lng=0 (a real coordinate) is distinguishable from an absent
// location.
type reachPayload struct {
	Locations []streach.Location `json:"locations"`
	Lat       *float64           `json:"lat"`
	Lng       *float64           `json:"lng"`
	Start     string             `json:"start"`
	Duration  string             `json:"dur"`
	Prob      float64            `json:"prob"`
	Algorithm string             `json:"algorithm"`
	Reverse   bool               `json:"reverse"`
}

// handleReach answers reachability queries. GET parameters (or the POST
// JSON body): lat, lng (or locations for multi), start (Go duration
// since midnight, e.g. 11h or 11h30m), dur, prob, alg — "algorithm" in
// the JSON body — (auto|bounded|exhaustive|sequential), reverse,
// timeout, format (geojson). Omitting lat/lng asks the busiest segment
// at the start time, which makes smoke tests self-contained.
func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	var p reachPayload
	// The URL parameters are parsed once: GET carries the whole query in
	// them, and both methods read timeout and format from them below.
	q := r.URL.Query()
	switch r.Method {
	case http.MethodGet:
		if q.Get("lat") != "" || q.Get("lng") != "" {
			lat, lng, err := parseFloatPair(q.Get("lat"), q.Get("lng"))
			if err != nil {
				s.badRequest(w, r, "%v", err)
				return
			}
			p.Lat, p.Lng = &lat, &lng
		}
		p.Start = q.Get("start")
		p.Duration = q.Get("dur")
		if v := q.Get("prob"); v != "" {
			var err error
			if p.Prob, err = strconv.ParseFloat(v, 64); err != nil {
				s.badRequest(w, r, "bad prob %q", v)
				return
			}
		}
		if p.Algorithm = q.Get("alg"); p.Algorithm == "" {
			p.Algorithm = q.Get("algorithm")
		}
		p.Reverse = q.Get("reverse") == "true" || q.Get("reverse") == "1"
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			s.badRequest(w, r, "bad JSON body: %v", err)
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		s.recordError(http.StatusMethodNotAllowed)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}

	start, err := parseDurationDefault(p.Start, 11*time.Hour)
	if err != nil {
		s.badRequest(w, r, "bad start: %v", err)
		return
	}
	dur, err := parseDurationDefault(p.Duration, 10*time.Minute)
	if err != nil {
		s.badRequest(w, r, "bad dur: %v", err)
		return
	}
	if p.Prob == 0 {
		p.Prob = 0.2
	}

	req := streach.Request{Start: start, Duration: dur, Prob: p.Prob}
	kind := "reach"
	switch {
	case len(p.Locations) > 1:
		req.Kind = streach.KindMulti
		req.Locations = p.Locations
		kind = "multi"
	case len(p.Locations) == 1:
		req.Kind = streach.KindReach
		req.Locations = p.Locations
	case p.Lat != nil && p.Lng != nil:
		req.Kind = streach.KindReach
		req.Locations = []streach.Location{{Lat: *p.Lat, Lng: *p.Lng}}
	case p.Lat != nil || p.Lng != nil:
		s.badRequest(w, r, "lat/lng must be given together")
		return
	default:
		// No location given: query the busiest segment at the start time.
		req.Kind = streach.KindReach
		req.Locations = []streach.Location{s.sys.BusiestLocation(start)}
	}
	if p.Reverse {
		if req.Kind == streach.KindMulti {
			s.badRequest(w, r, "reverse multi-location queries are not supported")
			return
		}
		req.Kind = streach.KindReverse
		kind = "reverse"
	}

	var opts []streach.Option
	if p.Algorithm != "" {
		alg, err := parseAlgorithm(p.Algorithm)
		if err != nil {
			s.badRequest(w, r, "%v", err)
			return
		}
		opts = append(opts, streach.WithAlgorithm(alg))
	}

	if !s.allowClient(w, r) {
		return
	}
	ctx, cancel, timeout, err := s.queryCtx(r, q.Get("timeout"))
	if err != nil {
		s.badRequest(w, r, "%v", err)
		return
	}
	defer cancel()

	ok, shed := s.admit()
	if !ok {
		s.reject(w, r)
		return
	}

	began := time.Now()
	var qerr error
	defer func() { s.finish(time.Since(began), timeout, qerr) }()
	region, shared, err := s.flights.do(ctx, s.coalesceKey(req, p.Algorithm), func() (*streach.Region, error) {
		return s.sys.Do(ctx, req, opts...)
	})
	if err != nil {
		qerr = err
		s.httpError(w, r, err)
		return
	}
	if shared {
		s.recordShared(kind)
	} else {
		s.record(kind, region.Metrics)
	}
	s.observe(kind, time.Since(began))
	s.maybePrefetch(start, dur, shed)

	s.writeRegion(w, r, region, wantsGeoJSON(r, q.Get("format")))
}

// handleRoute answers route queries. GET parameters: from_lat, from_lng,
// to_lat, to_lng, depart (Go duration since midnight), alg
// (auto|freeflow), timeout.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		s.recordError(http.StatusMethodNotAllowed)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	if q.Get("from_lat") == "" || q.Get("to_lat") == "" {
		s.badRequest(w, r, "route needs from_lat/from_lng and to_lat/to_lng")
		return
	}
	fromLat, fromLng, err := parseFloatPair(q.Get("from_lat"), q.Get("from_lng"))
	if err != nil {
		s.badRequest(w, r, "from: %v", err)
		return
	}
	toLat, toLng, err := parseFloatPair(q.Get("to_lat"), q.Get("to_lng"))
	if err != nil {
		s.badRequest(w, r, "to: %v", err)
		return
	}
	depart, err := parseDurationDefault(q.Get("depart"), 8*time.Hour)
	if err != nil {
		s.badRequest(w, r, "bad depart: %v", err)
		return
	}
	var opts []streach.Option
	if alg := q.Get("alg"); alg != "" {
		a, err := parseAlgorithm(alg)
		if err != nil {
			s.badRequest(w, r, "%v", err)
			return
		}
		opts = append(opts, streach.WithAlgorithm(a))
	}

	if !s.allowClient(w, r) {
		return
	}
	ctx, cancel, timeout, err := s.queryCtx(r, q.Get("timeout"))
	if err != nil {
		s.badRequest(w, r, "%v", err)
		return
	}
	defer cancel()

	if ok, _ := s.admit(); !ok {
		s.reject(w, r)
		return
	}

	req := streach.RouteRequest(
		streach.Location{Lat: fromLat, Lng: fromLng},
		streach.Location{Lat: toLat, Lng: toLng},
		depart,
	)
	began := time.Now()
	var qerr error
	defer func() { s.finish(time.Since(began), timeout, qerr) }()
	region, shared, err := s.flights.do(ctx, s.coalesceKey(req, q.Get("alg")), func() (*streach.Region, error) {
		return s.sys.Do(ctx, req, opts...)
	})
	if err != nil {
		qerr = err
		s.httpError(w, r, err)
		return
	}
	if shared {
		s.recordShared("route")
	} else {
		s.record("route", region.Metrics)
	}
	s.observe("route", time.Since(began))
	writeJSON(w, http.StatusOK, map[string]any{
		"segments":       region.Route.SegmentIDs,
		"travel_time_ms": region.Route.TravelTime.Milliseconds(),
		"distance_km":    region.Route.DistanceKm,
	})
}

// coalesceKey canonicalises everything that determines a query's answer
// — kind, algorithm, locations, start, window, and
// probability — so only truly identical in-flight queries share an
// execution. The response format and timeout are deliberately absent:
// they shape the reply, not the answer. This mirrors streach's batch
// groupKey except that Prob is included, because the coalescer shares
// whole answers, not plans — keep the two in step when Request grows a
// field. HTTP has no per-query ablation, so groupKey's engine-option
// bits have no counterpart here.
// The system's live data version joins the key too: an ingest append or
// a compaction must stop new requests from latching onto an in-flight
// execution that started over the older data.
func (s *Server) coalesceKey(req streach.Request, alg string) string {
	// Appended into a stack buffer: one allocation (the returned string)
	// for the usual single-location key.
	var stack [160]byte
	b := strconv.AppendInt(stack[:0], int64(req.Kind), 10)
	b = append(b, '|')
	b = append(b, strings.ToLower(alg)...)
	b = append(b, '|')
	b = append(b, s.sys.DataVersionKey()...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(req.Start), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(req.Duration), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(req.Prob), 16)
	for _, l := range req.Locations {
		b = append(b, '|')
		b = strconv.AppendUint(b, math.Float64bits(l.Lat), 16)
		b = append(b, ',')
		b = strconv.AppendUint(b, math.Float64bits(l.Lng), 16)
	}
	return string(b)
}

// wantsGeoJSON negotiates the reply format: ?format=geojson (format is
// that parameter's value) or an Accept header naming geo+json.
func wantsGeoJSON(r *http.Request, format string) bool {
	return format == "geojson" || strings.Contains(r.Header.Get("Accept"), "geo+json")
}

func parseAlgorithm(s string) (streach.Algorithm, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return streach.AlgoAuto, nil
	case "bounded", "sqmb", "mqmb":
		return streach.AlgoBounded, nil
	case "exhaustive", "es":
		return streach.AlgoExhaustive, nil
	case "sequential", "seq":
		return streach.AlgoSequential, nil
	case "freeflow":
		return streach.AlgoFreeFlow, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

func parseDurationDefault(s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	return time.ParseDuration(s)
}

// parseFloatPair parses a lat/lng pair where both or neither must be
// present; absent yields (0, 0).
func parseFloatPair(a, b string) (float64, float64, error) {
	if a == "" && b == "" {
		return 0, 0, nil
	}
	if a == "" || b == "" {
		return 0, 0, fmt.Errorf("lat/lng must be given together")
	}
	x, err := strconv.ParseFloat(a, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad coordinate %q", a)
	}
	y, err := strconv.ParseFloat(b, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad coordinate %q", b)
	}
	return x, y, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
