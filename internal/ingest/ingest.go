package ingest

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"streach/internal/conindex"
	"streach/internal/stindex"
)

// ErrClosed is returned by Add/TryAdd after Close.
var ErrClosed = errors.New("ingest: writer is closed")

// ErrBackpressure is returned by TryAdd when the queue is full: the
// caller should shed or retry later (the serve layer maps it to a typed
// 429).
var ErrBackpressure = errors.New("ingest: queue full")

// Config controls a Writer.
type Config struct {
	// Workers is the apply worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the pending-update queue (default 4096 updates);
	// TryAdd rejects beyond it rather than letting ingest latency leak
	// into query latency.
	QueueDepth int
	// BatchSize is how many updates a worker folds into one index append
	// and one WAL record (default 256).
	BatchSize int
	// FlushInterval bounds how long a worker sits on a partial batch
	// (default 50ms).
	FlushInterval time.Duration
	// WAL, when non-nil, receives every applied batch before it is
	// acknowledged. WAL write failures do not fail the apply — the
	// update is live in memory, just not crash-durable — but they are
	// counted, logged, and surfaced as a degraded-durability state until
	// an append succeeds again.
	WAL *SegmentedLog
	// Owner, when non-nil, maps a segment to its owning shard; per-shard
	// accepted counts are kept so the scatter layout of ingest traffic
	// is observable. Shards sizes the counter vector.
	Owner  func(seg int) int
	Shards int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 50 * time.Millisecond
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// speedBuffer caps how many Con-Index speed samples accumulate before
// being folded into the min/max bounds. Trajectory observations go live
// in the ST-Index delta on every batch, but the speed statistics —
// pruning bounds, not answer data — are buffered and folded at
// Flush/Close or when this cap fills, because every bound move
// invalidates materialised adjacency rows and per-batch folding at full
// ingest rate turns the query bounding phase into a Dijkstra storm. The
// cap bounds both memory and bound staleness: at r updates/s the bounds
// lag live by at most speedBuffer/r seconds between flushes.
const speedBuffer = 65536

// Stats snapshots a Writer's counters.
type Stats struct {
	Accepted  int64 // updates admitted to the queue
	Applied   int64 // updates folded into the indexes
	Dropped   int64 // updates rejected during apply (bad segment/day/taxi/time/speed)
	Rejected  int64 // updates refused at TryAdd (backpressure)
	Batches   int64 // index append batches
	WALErrors int64 // WAL append failures (updates stayed live, not durable)
	QueueLen  int   // updates currently queued
	// DurabilityDegraded is set while the most recent WAL append failed:
	// the system keeps serving and accepting, but acknowledged updates
	// since the failure are not crash-durable. The next successful
	// append clears it.
	DurabilityDegraded bool
	// WALLastError is the most recent WAL append failure ("" when none).
	WALLastError string
	// PendingSpeeds counts buffered Con-Index speed samples awaiting the
	// next fold (Flush, Close, or the speedBuffer cap).
	PendingSpeeds int
	PerShard      []int64
}

// Writer applies streaming updates to the live indexes through a
// bounded queue and a small worker pool. All index mutation happens on
// the workers; producers only pay a channel send.
type Writer struct {
	st  *stindex.Index
	con *conindex.Index
	cfg Config

	in     chan Update
	closed atomic.Bool
	wg     sync.WaitGroup

	accepted  atomic.Int64
	applied   atomic.Int64
	dropped   atomic.Int64
	rejected  atomic.Int64
	batches   atomic.Int64
	walErrors atomic.Int64
	perShard  []atomic.Int64

	walDegraded atomic.Bool
	walErrMu    sync.Mutex
	walLastErr  string

	// sampleMu guards the buffered Con-Index speed samples (see
	// speedBuffer and FoldSpeeds).
	sampleMu sync.Mutex
	samples  []conindex.SpeedSample
}

// NewWriter starts the worker pool over the given live indexes.
func NewWriter(st *stindex.Index, con *conindex.Index, cfg Config) *Writer {
	cfg = cfg.withDefaults()
	w := &Writer{
		st:       st,
		con:      con,
		cfg:      cfg,
		in:       make(chan Update, cfg.QueueDepth),
		perShard: make([]atomic.Int64, cfg.Shards),
	}
	for i := 0; i < cfg.Workers; i++ {
		w.wg.Add(1)
		go w.worker()
	}
	return w
}

// Add enqueues updates, blocking while the queue is full until ctx
// expires. Updates accepted before an error are still applied.
func (w *Writer) Add(ctx context.Context, updates []Update) error {
	for i, u := range updates {
		if w.closed.Load() {
			return fmt.Errorf("%w (%d of %d enqueued)", ErrClosed, i, len(updates))
		}
		select {
		case w.in <- u:
			w.accepted.Add(1)
		case <-ctx.Done():
			return fmt.Errorf("ingest: %w (%d of %d enqueued)", ctx.Err(), i, len(updates))
		}
	}
	return nil
}

// TryAdd enqueues updates without blocking; it returns how many were
// admitted and ErrBackpressure (or ErrClosed) for the remainder.
func (w *Writer) TryAdd(updates []Update) (int, error) {
	for i, u := range updates {
		if w.closed.Load() {
			return i, ErrClosed
		}
		select {
		case w.in <- u:
			w.accepted.Add(1)
		default:
			w.rejected.Add(int64(len(updates) - i))
			return i, ErrBackpressure
		}
	}
	return len(updates), nil
}

// Flush blocks until every update accepted so far has been applied (or
// ctx expires), then folds the buffered speed samples so the Con-Index
// bounds match an offline build over everything applied.
func (w *Writer) Flush(ctx context.Context) error {
	target := w.accepted.Load()
	for w.applied.Load()+w.dropped.Load() < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
	w.FoldSpeeds()
	return nil
}

// FoldSpeeds drains the buffered speed samples into the Con-Index
// bounds (one merged invalidation pass per touched slot) and returns
// how many samples were folded. Called by Flush and Close; callers that
// never flush get an automatic fold when the buffer hits its cap.
func (w *Writer) FoldSpeeds() int {
	w.sampleMu.Lock()
	drain := w.samples
	w.samples = nil
	w.sampleMu.Unlock()
	if len(drain) > 0 {
		w.con.ObserveSpeedBatch(drain)
	}
	return len(drain)
}

// bufferSpeeds queues one applied batch's speed samples for the next
// fold, folding inline when the buffer reaches its cap.
func (w *Writer) bufferSpeeds(samples []conindex.SpeedSample) {
	var drain []conindex.SpeedSample
	w.sampleMu.Lock()
	w.samples = append(w.samples, samples...)
	if len(w.samples) >= speedBuffer {
		drain = w.samples
		w.samples = nil
	}
	w.sampleMu.Unlock()
	if drain != nil {
		w.con.ObserveSpeedBatch(drain)
	}
}

// Close drains the queue, applies everything pending (including the
// speed-sample fold), and stops the workers. Add/TryAdd fail
// afterwards.
func (w *Writer) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(w.in)
	w.wg.Wait()
	w.FoldSpeeds()
	return nil
}

// Stats snapshots the counters.
func (w *Writer) Stats() Stats {
	s := Stats{
		Accepted:  w.accepted.Load(),
		Applied:   w.applied.Load(),
		Dropped:   w.dropped.Load(),
		Rejected:  w.rejected.Load(),
		Batches:   w.batches.Load(),
		WALErrors: w.walErrors.Load(),
		QueueLen:  len(w.in),
		PerShard:  make([]int64, len(w.perShard)),

		DurabilityDegraded: w.walDegraded.Load(),
	}
	w.walErrMu.Lock()
	s.WALLastError = w.walLastErr
	w.walErrMu.Unlock()
	w.sampleMu.Lock()
	s.PendingSpeeds = len(w.samples)
	w.sampleMu.Unlock()
	for i := range w.perShard {
		s.PerShard[i] = w.perShard[i].Load()
	}
	return s
}

// worker batches the queue and applies. A partial batch is applied when
// FlushInterval elapses with no new updates.
func (w *Writer) worker() {
	defer w.wg.Done()
	batch := make([]Update, 0, w.cfg.BatchSize)
	timer := time.NewTimer(w.cfg.FlushInterval)
	defer timer.Stop()
	for {
		timer.Reset(w.cfg.FlushInterval)
		select {
		case u, ok := <-w.in:
			if !ok {
				w.apply(batch)
				return
			}
			batch = append(batch, u)
			if len(batch) < w.cfg.BatchSize {
				continue
			}
		case <-timer.C:
		}
		if len(batch) > 0 {
			w.apply(batch)
			batch = batch[:0]
		}
	}
}

// apply folds one batch: validate, expand to per-slot ST-Index delta
// observations, append, buffer the speed samples for the next Con-Index
// fold, then log to the WAL. Invalid updates are dropped individually
// (with a diagnostic) so one bad report cannot poison a batch.
func (w *Writer) apply(batch []Update) {
	if len(batch) == 0 {
		return
	}
	good, obs, rejected := expandBatch(w.st, batch)
	for _, u := range rejected {
		w.dropped.Add(1)
		log.Printf("ingest: dropped update taxi=%d day=%d seg=%d [%d,%d]ms speed=%v: out of range",
			u.Taxi, u.Day, u.Seg, u.EnterMs, u.ExitMs, u.Speed)
	}
	if len(good) == 0 {
		return
	}
	if err := w.st.AppendDelta(obs); err != nil {
		// Bounds were pre-checked, so this is unexpected; count the
		// whole batch dropped rather than half-applying.
		w.dropped.Add(int64(len(good)))
		log.Printf("ingest: append delta failed, dropped %d updates: %v", len(good), err)
		return
	}
	w.bufferSpeeds(speedSamples(w.st.SlotSeconds(), good))
	// Split the batch by owning shard: the per-shard counters feed the
	// scatter-layout stats, and the segmented WAL keeps one append
	// stream (and one fsync pipeline) per shard.
	var byShard map[int][]Update
	if w.cfg.Owner != nil {
		byShard = make(map[int][]Update)
		for _, u := range good {
			sh := w.cfg.Owner(int(u.Seg))
			if sh < 0 || sh >= w.cfg.Shards {
				sh = 0
			}
			byShard[sh] = append(byShard[sh], u)
			if sh < len(w.perShard) {
				w.perShard[sh].Add(1)
			}
		}
	} else {
		byShard = map[int][]Update{0: good}
		if len(w.perShard) == 1 {
			w.perShard[0].Add(int64(len(good)))
		}
	}
	if w.cfg.WAL != nil {
		failed := false
		for sh, part := range byShard {
			if err := w.cfg.WAL.AppendUpdates(sh, part); err != nil {
				failed = true
				w.walErrors.Add(1)
				w.walErrMu.Lock()
				w.walLastErr = err.Error()
				w.walErrMu.Unlock()
				log.Printf("ingest: wal append failed (%d updates live but not durable): %v", len(part), err)
			}
		}
		if failed {
			w.walDegraded.Store(true)
		} else if w.walDegraded.CompareAndSwap(true, false) {
			log.Printf("ingest: wal append succeeded; durability restored")
		}
	}
	w.batches.Add(1)
	w.applied.Add(int64(len(good)))
}
