package conindex

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// cancelAfter reports Canceled once Err has been polled n times — a
// deterministic mid-Dijkstra cancellation with no timing dependence.
type cancelAfter struct {
	context.Context
	remaining atomic.Int64
}

func cancelAfterN(n int) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.remaining.Store(int64(n))
	return c
}

func (c *cancelAfter) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRowMaterialisationCancellation: a cancelled context must abort a
// cold row's Dijkstra without poisoning the key — the next caller with a
// live context materialises the row normally.
func TestRowMaterialisationCancellation(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.FarRowCtx(cancelled, 7, 130); !errors.Is(err, context.Canceled) {
		t.Fatalf("FarRowCtx with cancelled ctx = %v, want context.Canceled", err)
	}
	if m := idx.Stats().Materialised; m != 0 {
		t.Fatalf("aborted materialisation stored %d rows", m)
	}

	// Cancel mid-expansion: the first Err poll passes, a later one (at a
	// 32-pop checkpoint) fires. Either the expansion is small enough to
	// finish (fine) or it must abort with Canceled — never anything else.
	if _, err := idx.RowCtx(cancelAfterN(1), Near, 9, 130); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-expansion cancel returned %v", err)
	}

	// A live context must now succeed and actually materialise.
	row, err := idx.FarRowCtx(context.Background(), 7, 130)
	if err != nil {
		t.Fatal(err)
	}
	if row.Len() == 0 {
		t.Fatal("materialised Far row is empty")
	}
	if m := idx.Stats().Materialised; m == 0 {
		t.Fatal("retry after cancellation did not materialise")
	}
}

// TestPrecomputeSlotsCancellation: a cancelled warm stops early with the
// context's error and leaves the index usable.
func TestPrecomputeSlotsCancellation(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := idx.PrecomputeSlotsCtx(cancelled, 130, 135, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("PrecomputeSlotsCtx with cancelled ctx = %v, want context.Canceled", err)
	}

	// A budgeted context lets some rows through, then stops: fewer rows
	// than a full warm, no error besides Canceled.
	partial := build(t, n, testDataset(t, n))
	err := partial.PrecomputeSlotsCtx(cancelAfterN(50), 130, 135, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("budgeted warm = %v, want context.Canceled", err)
	}
	full := build(t, n, testDataset(t, n))
	if err := full.PrecomputeSlotsCtx(context.Background(), 130, 135, 4); err != nil {
		t.Fatal(err)
	}
	if partial.CachedLists() >= full.CachedLists() {
		t.Fatalf("cancelled warm cached %d rows, full warm %d — cancellation did not stop early",
			partial.CachedLists(), full.CachedLists())
	}
}
