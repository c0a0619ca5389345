package streach

import (
	"context"
	"fmt"
	"log"
	"path/filepath"
	"time"

	"streach/internal/ingest"
	"streach/internal/roadnet"
	"streach/internal/traj"
)

// Live trajectory ingestion (DESIGN.md §13). A built or reopened system
// is no longer frozen at index-construction time: StartIngest attaches
// a batching, worker-pooled writer that folds streaming position
// updates into the ST-Index delta layer and the Con-Index speed
// statistics, queries merge base and delta transparently, and
// CompactIngestN folds the accumulated delta into freshly encoded blobs
// — a new index epoch — off the query hot path.

// ErrIngestBackpressure is returned by TryIngest when the ingest queue
// is full: shed the update or retry later. The serving layer maps it to
// a 429.
var ErrIngestBackpressure = ingest.ErrBackpressure

// IngestUpdate is one live position report, already resolved to a road
// segment: the taxi traversed SegmentID on Day between EnterMs and
// ExitMs (milliseconds since that day's midnight) at SpeedMps.
type IngestUpdate struct {
	TaxiID    int32
	Day       int
	SegmentID int32
	EnterMs   int32
	ExitMs    int32
	SpeedMps  float32
}

// IngestConfig controls the live-ingest writer. The writer itself is
// fixed: two workers, a 4096-update queue (TryIngest rejects beyond
// it), 256-update batches flushed at least every 50 ms, 65536 buffered
// Con-Index speed samples, and a segmented write-ahead log under
// dir/wal/ (segments rotated at 4 MiB or 1 min) when the system has a
// save directory — a directory-less system runs without one. Trajectory
// data goes live in the ST-Index delta on every batch; the speed bounds
// — pruning statistics — fold at FlushIngest/CompactIngestN/Close or
// when the sample buffer fills, so live write load cannot turn the query
// bounding phase into a per-sample row-recompute storm.
type IngestConfig struct {
	// CompactInterval, when positive, runs incremental compactions on a
	// background loop every interval while dirty keys are pending, with
	// exponential backoff after a persist failure. Each cycle folds at
	// most 4096 dirty keys; the rest roll to the next cycle.
	// Zero leaves compaction to explicit CompactIngestN calls.
	CompactInterval time.Duration
}

// IngestStats snapshots the live-ingest machinery: the writer counters
// (zero before StartIngest) and the ST-Index delta layer.
type IngestStats struct {
	// Writer counters.
	Accepted  int64 // updates admitted to the queue
	Applied   int64 // updates folded into the indexes
	Dropped   int64 // updates rejected during apply (bad segment/day/taxi/time/speed)
	Rejected  int64 // updates refused by TryIngest (backpressure)
	Batches   int64 // index append batches
	WALErrors int64 // WAL append failures (updates stayed live, not durable)
	QueueLen  int   // updates currently queued
	// PendingSpeedSamples counts Con-Index speed samples buffered for
	// the next fold (FlushIngest, CompactIngestN, Close, or the buffer
	// cap).
	PendingSpeedSamples int
	// PerShard counts applied updates per owning shard (len 1 when
	// unsharded).
	PerShard []int64
	// DurabilityDegraded is set while WAL appends are failing: the
	// system keeps serving and accepting updates, but acknowledged
	// updates since the failure are not crash-durable. The next
	// successful append clears it.
	DurabilityDegraded bool
	// WALLastError is the most recent WAL append failure ("" when none).
	WALLastError string
	// WALEnabled reports whether a segmented WAL is attached (false
	// before StartIngest, or on a directory-less system).
	WALEnabled bool
	// WALSegments counts live WAL segment files (0 without a WAL).
	WALSegments int
	// Background compaction loop counters (zero when the loop is off).
	BackgroundCompactions int64
	BackgroundCompactErrs int64
	// ST-Index delta layer.
	DirtyKeys        int   // (segment, slot) keys pending compaction
	PendingObs       int64 // delta observations not yet compacted
	AppendedObs      int64 // cumulative observations accepted
	Epoch            uint64
	DataVersion      uint64
	Compactions      uint64
	LastCompactKeys  int64
	LastCompactPause time.Duration
}

// CompactResult reports one CompactIngestN call.
type CompactResult struct {
	// Keys is how many dirty (segment, slot) keys were folded,
	// Observations how many delta observations they held, and Bytes how
	// many freshly encoded blob bytes were appended.
	Keys         int
	Observations int64
	Bytes        int64
	// Pause is the handle-table install critical section — the only
	// moment the fold excludes appends and cache misses.
	Pause time.Duration
	// Epoch is the index epoch after the install.
	Epoch uint64
	// Durable reports whether the fold was persisted (the system has a
	// save directory) and the covered WAL segments retired.
	Durable bool
	// Remaining counts dirty keys rolled to the next cycle by a
	// budgeted fold (maxKeys > 0); 0 after a full compaction.
	Remaining int
	// CarriedObs counts rolled-over delta observations re-logged to the
	// WAL as carry records so segment retirement never sheds them.
	CarriedObs int
}

// StartIngest attaches the live-ingest writer to the system. Updates
// stream in through Ingest/TryIngest, fold into the indexes on a small
// worker pool, and become visible to queries within one batch flush.
// When the system has a save directory (OpenSystem, or after Save) a
// segmented write-ahead log under dir/wal makes accepted updates
// crash-durable between compactions; OpenSystem replays it in parallel.
// A positive CompactInterval also starts the background incremental
// compaction loop. A closed system starts nothing and returns an error.
func (s *System) StartIngest(cfg IngestConfig) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.closed {
		return fmt.Errorf("streach: ingest on a closed system")
	}
	if s.ingestW != nil {
		return fmt.Errorf("streach: ingest already started")
	}
	shards := 1
	var owner func(seg int) int
	if c := s.cluster.Load(); c != nil {
		part := c.Partition()
		owner = func(seg int) int { return part.Owner(roadnet.SegmentID(seg)) }
		shards = part.Shards()
	}
	var wal *ingest.SegmentedLog
	if s.dir != "" {
		var err error
		if wal, err = ingest.OpenSegmented(filepath.Join(s.dir, walDirName), ingest.SegmentedConfig{
			Shards: shards,
			Epoch:  s.st.Epoch(),
		}); err != nil {
			return fmt.Errorf("streach: %w", err)
		}
	}
	s.wal = wal
	s.ingestW = ingest.NewWriter(s.st, s.con, ingest.Config{Owner: owner, Shards: shards, WAL: wal})
	if cfg.CompactInterval > 0 {
		s.compactStop = make(chan struct{})
		s.compactDone = make(chan struct{})
		go s.compactLoop(cfg.CompactInterval, s.compactStop, s.compactDone)
	}
	return nil
}

// compactCycleKeys is the background loop's per-cycle key cap.
const compactCycleKeys = 4096

// compactLoop runs incremental compactions in the background: every
// interval it folds up to compactCycleKeys of the hottest dirty keys
// (rolling the rest forward), backing off exponentially when a cycle
// fails (typically a persist error — nothing is lost, the WAL keeps
// everything until a cycle succeeds).
func (s *System) compactLoop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	backoff := interval
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		if s.st.DeltaStats().DirtyKeys == 0 {
			timer.Reset(interval)
			continue
		}
		res, err := s.CompactIngestN(context.Background(), compactCycleKeys)
		if err != nil {
			s.bgCompactErrs.Add(1)
			backoff *= 2
			if backoff > 16*interval {
				backoff = 16 * interval
			}
			log.Printf("streach: background compaction failed (retrying in %s): %v", backoff, err)
			timer.Reset(backoff)
			continue
		}
		backoff = interval
		s.bgCompacts.Add(1)
		if res.Remaining > 0 {
			// Backlog left: come back sooner than a full interval.
			timer.Reset(interval / 4)
		} else {
			timer.Reset(interval)
		}
	}
}

// ingestWriter snapshots the writer under the ingest lock.
func (s *System) ingestWriter() *ingest.Writer {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.ingestW
}

// IngestEnabled reports whether StartIngest has attached a live writer.
func (s *System) IngestEnabled() bool { return s.ingestWriter() != nil }

// stopIngest stops the background compaction loop and the writer
// (draining its queue), then closes the WAL, and refuses any later
// StartIngest. Part of Close; idempotent.
func (s *System) stopIngest() error {
	// Stop the loop outside ingestMu: a mid-cycle CompactIngestN takes
	// ingestMu itself, so waiting for it under the lock would deadlock.
	s.ingestMu.Lock()
	s.closed = true
	stop, done := s.compactStop, s.compactDone
	s.compactStop, s.compactDone = nil, nil
	s.ingestMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	var err error
	if s.ingestW != nil {
		err = s.ingestW.Close()
		s.ingestW = nil
	}
	if s.wal != nil {
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
		s.wal = nil
	}
	return err
}

func toIngestUpdates(updates []IngestUpdate) []ingest.Update {
	out := make([]ingest.Update, len(updates))
	for i, u := range updates {
		out[i] = ingest.Update{
			Taxi:    traj.TaxiID(u.TaxiID),
			Day:     traj.Day(u.Day),
			Seg:     roadnet.SegmentID(u.SegmentID),
			EnterMs: u.EnterMs,
			ExitMs:  u.ExitMs,
			Speed:   u.SpeedMps,
		}
	}
	return out
}

// Ingest enqueues live updates, blocking while the queue is full until
// ctx expires. Requires StartIngest.
func (s *System) Ingest(ctx context.Context, updates []IngestUpdate) error {
	w := s.ingestWriter()
	if w == nil {
		return fmt.Errorf("streach: ingest not started")
	}
	return w.Add(ctx, toIngestUpdates(updates))
}

// TryIngest enqueues live updates without blocking. It returns how many
// were admitted; the remainder failed with ErrIngestBackpressure (queue
// full) or a closed-writer error.
func (s *System) TryIngest(updates []IngestUpdate) (int, error) {
	w := s.ingestWriter()
	if w == nil {
		return 0, fmt.Errorf("streach: ingest not started")
	}
	return w.TryAdd(toIngestUpdates(updates))
}

// FlushIngest blocks until every update accepted so far is folded into
// the indexes (or ctx expires).
func (s *System) FlushIngest(ctx context.Context) error {
	w := s.ingestWriter()
	if w == nil {
		return nil
	}
	return w.Flush(ctx)
}

// IngestStats snapshots the ingest counters and the delta layer. Valid
// before StartIngest (writer counters read zero).
func (s *System) IngestStats() IngestStats {
	ds := s.st.DeltaStats()
	out := IngestStats{
		DirtyKeys:        ds.DirtyKeys,
		PendingObs:       ds.PendingObs,
		AppendedObs:      ds.AppendedObs,
		Epoch:            ds.Epoch,
		DataVersion:      ds.DataVersion,
		Compactions:      ds.Compactions,
		LastCompactKeys:  ds.LastCompactKeys,
		LastCompactPause: ds.LastCompactPause,
	}
	if w := s.ingestWriter(); w != nil {
		ws := w.Stats()
		out.Accepted = ws.Accepted
		out.Applied = ws.Applied
		out.Dropped = ws.Dropped
		out.Rejected = ws.Rejected
		out.Batches = ws.Batches
		out.WALErrors = ws.WALErrors
		out.QueueLen = ws.QueueLen
		out.PendingSpeedSamples = ws.PendingSpeeds
		out.PerShard = ws.PerShard
		out.DurabilityDegraded = ws.DurabilityDegraded
		out.WALLastError = ws.WALLastError
	}
	s.ingestMu.Lock()
	wal := s.wal
	s.ingestMu.Unlock()
	if wal != nil {
		ls := wal.Stats()
		out.WALEnabled = true
		out.WALSegments = ls.Segments
		// The log's own view of degradation (append retries exhausted,
		// carry-record failures) folds in alongside the writer's.
		if ls.Degraded {
			out.DurabilityDegraded = true
		}
		if out.WALLastError == "" {
			out.WALLastError = ls.LastError
		}
	}
	out.BackgroundCompactions = s.bgCompacts.Load()
	out.BackgroundCompactErrs = s.bgCompactErrs.Load()
	return out
}

// CompactIngestN flushes the pending ingest queue, folds the delta layer
// into freshly encoded blobs, and installs a new index epoch. maxKeys
// <= 0 folds the whole layer; maxKeys > 0 folds only the hottest maxKeys
// dirty (segment, slot) keys — bounding the encode work and the install
// pause — and rolls the rest to the next cycle (reported as Remaining).
// In-flight queries finish on the epoch they started with; only the
// handle-table install (the reported Pause) excludes concurrent appends.
//
// When the system has a save directory the cycle is durable, in an
// order that never sheds an acknowledged update:
//
//  1. the WAL is sealed, fixing the retirement cut — every record at or
//     below it is in the delta snapshot the fold sees;
//  2. the fold is persisted (pages synced, then ST-Index meta and
//     Con-Index statistics, each installed atomically);
//  3. observations the budget rolled over are re-logged as WAL carry
//     records (their speed statistics are already durable from step 2);
//  4. only then are the covered segments retired.
//
// A failure at any step keeps the sealed segments: the fold stays live
// in memory and the next open replays everything newer than the last
// durable epoch. Replay is idempotent for the ST-Index delta (set
// union) and the Con-Index min/max bounds; only mean-speed accumulators
// can double-count across a partial cycle.
func (s *System) CompactIngestN(ctx context.Context, maxKeys int) (CompactResult, error) {
	// Serialise whole compaction cycles (seal + fold + persist + carry +
	// retire), not just the folds: two concurrent calls could otherwise
	// interleave a stale persist over a newer one.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if w := s.ingestWriter(); w != nil {
		if err := w.Flush(ctx); err != nil {
			return CompactResult{}, fmt.Errorf("streach: flush before compaction: %w", err)
		}
	}
	s.ingestMu.Lock()
	wal := s.wal
	s.ingestMu.Unlock()
	var cut uint64
	if wal != nil && s.dir != "" {
		// Seal before the fold snapshot: every WAL record at or below the
		// cut is already applied to the delta layer (the writer appends to
		// the index before the WAL), so the snapshot covers it.
		cut = wal.Seal()
	}
	cs, err := s.st.CompactDeltasBudget(maxKeys)
	if err != nil {
		return CompactResult{}, fmt.Errorf("streach: compact deltas: %w", err)
	}
	res := CompactResult{
		Keys:         cs.Keys,
		Observations: cs.Observations,
		Bytes:        cs.Bytes,
		Pause:        cs.Pause,
		Epoch:        cs.Epoch,
		Remaining:    cs.Remaining,
	}
	if s.dir == "" {
		return res, nil
	}
	if err := s.persistIndexes(s.dir); err != nil {
		// The fold is live in memory and every accepted update is still
		// in the WAL (nothing was retired): the next open replays it, so
		// nothing is lost.
		return res, fmt.Errorf("streach: persist compaction (wal kept for replay): %w", err)
	}
	if wal != nil {
		wal.SetEpoch(cs.Epoch)
		// Re-log what the budget rolled over before retiring the segments
		// it came from. PendingDelta may also include observations newer
		// than the cut (their segments survive retirement); replaying
		// those twice is harmless — the delta layer is a set union.
		carry := s.st.PendingDelta()
		for len(carry) > 0 {
			n := len(carry)
			if n > 1<<16 {
				n = 1 << 16
			}
			if err := wal.AppendObs(0, carry[:n]); err != nil {
				// Without a durable carry the rolled-over keys would ride
				// only on the old segments: keep them (skip retirement).
				return res, fmt.Errorf("streach: carry rolled-over delta to wal (segments kept for replay): %w", err)
			}
			res.CarriedObs += n
			carry = carry[n:]
		}
		if err := wal.Retire(cut); err != nil {
			// Leftover segments cost reopen time, never correctness:
			// replay is idempotent.
			return res, fmt.Errorf("streach: retire wal segments: %w", err)
		}
	}
	res.Durable = true
	return res, nil
}
