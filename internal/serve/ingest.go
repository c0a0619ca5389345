package serve

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"streach"
	"streach/internal/ingest"
)

// Live ingestion over HTTP (DESIGN.md §13): POST /v1/ingest accepts
// batches of position updates and feeds them to the system's live
// writer, behind the same per-client quota and admission gates as the
// query endpoints; POST /v1/ingest/compact folds the accumulated delta
// layer into a new index epoch. Both answer 503 on a system whose
// operator did not enable ingest (`streach serve -ingest`).

// ingestUpdate is the JSON wire form of one position update.
type ingestUpdate struct {
	Taxi     int32   `json:"taxi"`
	Day      int     `json:"day"`
	Seg      int32   `json:"seg"`
	EnterMs  int32   `json:"enter_ms"`
	ExitMs   int32   `json:"exit_ms"`
	SpeedMps float32 `json:"speed_mps"`
}

type ingestPayload struct {
	Updates []ingestUpdate `json:"updates"`
}

// maxIngestBatch bounds one POST body at the writer's queue depth, the
// most an idle server can take whole: larger batches should be split by
// the client (the CLI replayer does). maxIngestBody caps the body's
// bytes at 256 per update, about twice what a full-width update takes,
// so the cap is checked before the whole body is decoded.
const (
	maxIngestBatch = ingest.DefaultQueueDepth
	maxIngestBody  = 256 * maxIngestBatch
)

// handleIngest accepts one batch of live updates. The write path is
// deliberately non-blocking: a full ingest queue answers a typed 429
// with Retry-After (the same backpressure contract as query admission)
// instead of parking the HTTP handler on the queue — ingest latency
// must not leak into the connection pool. ?wait=1 additionally blocks
// until the batch is folded into the indexes (visible to queries),
// which the smoke tests use to avoid sleeps.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		s.recordError(http.StatusMethodNotAllowed)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.sys.IngestEnabled() {
		s.recordError(http.StatusServiceUnavailable)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":      "live ingest is not enabled on this server",
			"code":       streach.InvalidRequest.String(),
			"request_id": RequestID(r.Context()),
		})
		return
	}
	var p ingestPayload
	if !s.decodeBody(w, r, maxIngestBody, &p) {
		return
	}
	if len(p.Updates) == 0 {
		s.badRequest(w, r, "no updates in batch")
		return
	}
	if len(p.Updates) > maxIngestBatch {
		s.badRequest(w, r, "batch of %d exceeds the %d-update limit", len(p.Updates), maxIngestBatch)
		return
	}
	if !s.allowClient(w, r) {
		return
	}
	if !s.admit() {
		s.reject(w, r)
		return
	}
	defer s.release()

	began := time.Now()
	updates := make([]streach.IngestUpdate, len(p.Updates))
	for i, u := range p.Updates {
		updates[i] = streach.IngestUpdate{
			TaxiID:    u.Taxi,
			Day:       u.Day,
			SegmentID: u.Seg,
			EnterMs:   u.EnterMs,
			ExitMs:    u.ExitMs,
			SpeedMps:  u.SpeedMps,
		}
	}
	accepted, err := s.sys.TryIngest(updates)
	s.vars.Add("ingest_accepted_total", int64(accepted))
	if err != nil {
		s.vars.Add("ingest_rejected_total", int64(len(updates)-accepted))
		if errors.Is(err, streach.ErrIngestBackpressure) {
			// Partial admission is reported honestly: the client retries
			// only the tail.
			s.recordError(http.StatusTooManyRequests)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":      "ingest queue full; retry the remainder",
				"code":       streach.Overloaded.String(),
				"accepted":   accepted,
				"request_id": RequestID(r.Context()),
			})
			return
		}
		s.httpError(w, r, err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		if err := s.sys.FlushIngest(r.Context()); err != nil {
			s.httpError(w, r, err)
			return
		}
	}
	s.vars.Add("ingest_batches_total", 1)
	s.observe("ingest", time.Since(began))
	ist := s.sys.IngestStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"accepted":     accepted,
		"epoch":        ist.Epoch,
		"data_version": ist.DataVersion,
		"pending_obs":  ist.PendingObs,
		"queue_len":    ist.QueueLen,
	})
}

// handleIngestCompact folds the delta layer into freshly encoded blobs
// and installs a new index epoch. In-flight queries finish on the epoch
// they started with; the reported pause is the handle-table install
// critical section, not the fold.
func (s *Server) handleIngestCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		s.recordError(http.StatusMethodNotAllowed)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.sys.IngestEnabled() {
		s.recordError(http.StatusServiceUnavailable)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":      "live ingest is not enabled on this server",
			"code":       streach.InvalidRequest.String(),
			"request_id": RequestID(r.Context()),
		})
		return
	}
	if !s.allowClient(w, r) {
		return
	}
	// ?keys=N bounds the fold to the N hottest dirty keys (incremental
	// compaction); the rest roll to the next call or background cycle.
	maxKeys := 0
	if v := r.URL.Query().Get("keys"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.badRequest(w, r, "invalid keys parameter %q", v)
			return
		}
		maxKeys = n
	}
	res, err := s.sys.CompactIngestN(r.Context(), maxKeys)
	if err != nil {
		s.httpError(w, r, err)
		return
	}
	s.vars.Add("ingest_compactions_total", 1)
	writeJSON(w, http.StatusOK, map[string]any{
		"keys":         res.Keys,
		"observations": res.Observations,
		"bytes":        res.Bytes,
		"pause_ms":     float64(res.Pause) / float64(time.Millisecond),
		"epoch":        res.Epoch,
		"durable":      res.Durable,
		"remaining":    res.Remaining,
		"carried_obs":  res.CarriedObs,
	})
}
