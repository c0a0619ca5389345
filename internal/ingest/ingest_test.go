package ingest

import (
	"context"
	"errors"
	"testing"
	"time"

	"streach/internal/conindex"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/traj"
)

func testIndexes(t *testing.T) (*stindex.Index, *conindex.Index) {
	t.Helper()
	n, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin: geo.Point{Lat: 22.5, Lng: 114.0},
		Rows:   5, Cols: 5, SpacingMeters: 700, LocalFraction: 0.3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := traj.Simulate(n, traj.SimConfig{
		Taxis: 10, Days: 3, Profile: traj.DefaultSpeedProfile(), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stindex.Build(n, ds, stindex.Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	con, err := conindex.Build(n, ds, conindex.Config{SlotSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	return st, con
}

func testUpdates(n int) []Update {
	out := make([]Update, 0, n)
	for i := 0; i < n; i++ {
		enter := int32((100 + i%180) * 300 * 1000)
		out = append(out, Update{
			Taxi: traj.TaxiID(100 + i%20), Day: traj.Day(i % 3),
			Seg: roadnet.SegmentID(i % 40), EnterMs: enter, ExitMs: enter + 30_000,
			Speed: 8,
		})
	}
	return out
}

func TestWriterAppliesAndCounts(t *testing.T) {
	st, con := testIndexes(t)
	w := NewWriter(st, con, Config{FlushInterval: 5 * time.Millisecond})
	defer w.Close()

	updates := testUpdates(100)
	// Two invalid updates: bad segment, inverted interval.
	updates = append(updates,
		Update{Taxi: 1, Day: 0, Seg: 9999, EnterMs: 0, ExitMs: 1000, Speed: 5},
		Update{Taxi: 1, Day: 0, Seg: 1, EnterMs: 5000, ExitMs: 1000, Speed: 5},
	)
	if err := w.Add(context.Background(), updates); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.Accepted != 102 || s.Applied != 100 || s.Dropped != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if len(s.PerShard) != 1 || s.PerShard[0] != 100 {
		t.Fatalf("per-shard counts = %v", s.PerShard)
	}
	if ds := st.DeltaStats(); ds.PendingObs == 0 || ds.DataVersion == 0 {
		t.Fatalf("delta layer untouched: %+v", ds)
	}
	if con.InvalidationGen() == 0 {
		t.Fatal("con-index bounds untouched")
	}
}

func TestTryAddBackpressureAndClose(t *testing.T) {
	st, con := testIndexes(t)
	wal, err := OpenSegmented(t.TempDir(), SegmentedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	// Slow the workers to a crawl via the WAL fault hook so the tiny
	// queue fills deterministically.
	wal.SetFault(func() error { time.Sleep(20 * time.Millisecond); return nil })
	w := NewWriter(st, con, Config{
		Workers: 1, QueueDepth: 4, BatchSize: 1, FlushInterval: time.Millisecond, WAL: wal,
	})
	updates := testUpdates(256)
	admitted := 0
	var lastErr error
	for off := 0; off < len(updates); off += 16 {
		n, err := w.TryAdd(updates[off : off+16])
		admitted += n
		if err != nil {
			lastErr = err
		}
	}
	if !errors.Is(lastErr, ErrBackpressure) {
		t.Fatalf("flooding a 4-deep queue never hit backpressure (admitted %d)", admitted)
	}
	if admitted == len(updates) {
		t.Fatal("every update admitted despite backpressure error")
	}
	if s := w.Stats(); s.Rejected == 0 {
		t.Fatalf("rejected counter not bumped: %+v", s)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drains: everything admitted must be applied.
	if s := w.Stats(); s.Applied+s.Dropped != int64(admitted) {
		t.Fatalf("close did not drain: %+v (admitted %d)", s, admitted)
	}
	if _, err := w.TryAdd(updates[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryAdd after close = %v", err)
	}
	if err := w.Add(context.Background(), updates[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after close = %v", err)
	}
}

// TestWriterDegradedWAL: WAL append failures keep the updates live (the
// indexes got them) and are counted, never silently swallowed and never
// fatal to the writer.
func TestWriterDegradedWAL(t *testing.T) {
	st, con := testIndexes(t)
	wal, err := OpenSegmented(t.TempDir(), SegmentedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	wal.SetFault(func() error { return errors.New("disk gone") })
	w := NewWriter(st, con, Config{FlushInterval: time.Millisecond, WAL: wal})
	defer w.Close()

	if err := w.Add(context.Background(), testUpdates(50)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.Applied != 50 {
		t.Fatalf("updates lost on WAL failure: %+v", s)
	}
	if s.WALErrors == 0 {
		t.Fatalf("WAL failures not counted: %+v", s)
	}
}

// TestApplyBatchReplayIdempotent pins the replay contract: applying the
// same WAL batch twice leaves the ST-Index delta unchanged (set union)
// and the Con-Index min/max bounds unchanged; only mean-speed
// accumulators may move.
func TestApplyBatchReplayIdempotent(t *testing.T) {
	st, con := testIndexes(t)
	batch := testUpdates(40)

	applied, dropped := ApplyBatch(st, con, batch)
	if applied != 40 || dropped != 0 {
		t.Fatalf("first apply: applied=%d dropped=%d", applied, dropped)
	}
	ds1 := st.DeltaStats()
	gen1 := con.InvalidationGen()

	applied, dropped = ApplyBatch(st, con, batch)
	if applied != 40 || dropped != 0 {
		t.Fatalf("second apply: applied=%d dropped=%d", applied, dropped)
	}
	ds2 := st.DeltaStats()
	if ds2.PendingObs != ds1.PendingObs || ds2.DirtyKeys != ds1.DirtyKeys {
		t.Fatalf("replay double-counted delta observations: %+v -> %+v", ds1, ds2)
	}
	if con.InvalidationGen() != gen1 {
		t.Fatal("replaying identical speeds moved a min/max bound")
	}
	// The caller's batch must not be clobbered by in-place expansion.
	if batch[0].Taxi != 100 {
		t.Fatalf("ApplyBatch mutated the caller's batch: %+v", batch[0])
	}
}
