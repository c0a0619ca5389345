package conindex

import (
	"sync"
	"sync/atomic"

	"streach/internal/bitset"
	"streach/internal/roadnet"
)

// table is one of the four adjacency tables (forward/reverse × Near/Far).
// Materialised rows live in per-slot arrays indexed by segment, each
// cell an atomic pointer to an immutable row's block (see Row): a hit is
// two atomic loads and takes no lock, which matters because a bounding
// round resolves one row per region segment. A slot's array is allocated
// when its first row is installed, so memory follows the slots queries
// and warm-ups touch (one pointer per segment each) rather than
// numSlots × numSegments. filled counts each slot's materialised rows,
// so "is this slot fully warm" is one load per table (see
// PrecomputeSlotsCtx) instead of a walk over its cells.
//
// mu serialises everything that changes the table — installs,
// invalidations and the singleflight registry — and is never taken by a
// hit.
type table struct {
	slots  []atomic.Pointer[slotRows]
	filled []atomic.Int32 // materialised rows per slot
	nseg   int            // cells per slot array

	mu     sync.Mutex
	flight map[int64]*flightCall
}

// slotRows holds one slot's materialised rows; nil cells are cold.
type slotRows []atomic.Pointer[uint64]

// flightCall is one in-progress row materialisation. row and err are
// written before done is closed; waiters read them only after <-done.
type flightCall struct {
	done chan struct{}
	row  Row
	err  error
}

func newTable(numSlots, numSegments int) table {
	return table{
		slots:  make([]atomic.Pointer[slotRows], numSlots),
		filled: make([]atomic.Int32, numSlots),
		nseg:   numSegments,
	}
}

// lookup returns the materialised row of (slot, seg), if any.
func (t *table) lookup(slot int, seg roadnet.SegmentID) (Row, bool) {
	if sr := t.slots[slot].Load(); sr != nil {
		if p := (*sr)[seg].Load(); p != nil {
			return Row{p}, true
		}
	}
	return Row{}, false
}

// store installs r at (slot, seg). Caller holds t.mu.
func (t *table) store(slot int, seg roadnet.SegmentID, r Row) {
	sr := t.slots[slot].Load()
	if sr == nil {
		fresh := make(slotRows, t.nseg)
		sr = &fresh
		t.slots[slot].Store(sr)
	}
	if r.p == nil {
		r = emptyRow
	}
	if (*sr)[seg].Swap(r.p) == nil {
		t.filled[slot].Add(1)
	}
}

// row returns the cached row for (seg, slot), materialising it with
// compute on a cold miss. Concurrent cold misses on the same key block on
// a single computation (singleflight): exactly one caller runs the
// expansion, the rest wait for its result. When the computing caller
// aborts (its context was cancelled mid-Dijkstra), nothing is stored and
// each waiter retries with its own compute — one caller's cancellation
// never poisons another caller's lookup. A segment outside the network
// has the empty row and is never stored. built reports that this call
// ran compute to the end itself — the Materialised count, attributable
// to one caller.
func (t *table) row(x *Index, seg roadnet.SegmentID, slot int, compute func() (Row, error)) (r Row, built bool, err error) {
	if seg < 0 || int(seg) >= t.nseg {
		return Row{}, false, nil
	}
	key := cacheKey(seg, slot)
	for {
		if r, ok := t.lookup(slot, seg); ok {
			x.stats.hits.Add(1)
			return r, false, nil
		}
		t.mu.Lock()
		if r, ok := t.lookup(slot, seg); ok {
			t.mu.Unlock()
			x.stats.hits.Add(1)
			return r, false, nil
		}
		if fc, ok := t.flight[key]; ok {
			t.mu.Unlock()
			<-fc.done
			if fc.err != nil {
				continue // the computing caller aborted: retry ourselves
			}
			x.stats.hits.Add(1)
			return fc.row, false, nil
		}
		fc := &flightCall{done: make(chan struct{})}
		if t.flight == nil {
			t.flight = map[int64]*flightCall{}
		}
		t.flight[key] = fc
		t.mu.Unlock()

		// Record the slot's invalidation generation before the expansion
		// reads any speed: if an ObserveSpeedBatch lands on this slot
		// mid-compute, the row below was built from pre-update speeds and
		// must not be cached (the invalidation scan may already have run
		// and missed it). Waiters still get the computed row — their
		// query merely raced the ingest. The guard is per slot because an
		// expansion only reads its own slot's speeds; observations on
		// other slots cannot stale this row.
		gen := x.slotGen[slot].Load()

		// Deregister and release waiters even if compute panics — a
		// poisoned flight entry would block every later lookup of this key
		// forever. On panic or error the row stays unmaterialised and
		// waiters recompute it themselves.
		stored := false
		func() {
			defer func() {
				t.mu.Lock()
				if stored && x.slotGen[slot].Load() == gen {
					t.store(slot, seg, fc.row)
				} else if !stored && fc.err == nil {
					fc.err = errAborted
				}
				delete(t.flight, key)
				t.mu.Unlock()
				close(fc.done)
			}()
			fc.row, fc.err = compute()
			if fc.err == nil {
				x.stats.materialised.Add(1)
				stored = true
			}
		}()
		return fc.row, stored, fc.err
	}
}

// orHits ORs every materialised row of segs at slot into dst and
// appends the segments whose row is cold to misses: one bounding round's
// lock-free pass, two atomic loads and a word-sparse OR per hit. Segments
// outside the network have the empty row.
func (t *table) orHits(slot int, segs []roadnet.SegmentID, dst bitset.Set, misses []roadnet.SegmentID) []roadnet.SegmentID {
	for _, seg := range segs {
		if seg < 0 || int(seg) >= t.nseg {
			continue
		}
		if r, ok := t.lookup(slot, seg); ok {
			r.OrInto(dst)
		} else {
			misses = append(misses, seg)
		}
	}
	return misses
}

// size returns how many rows are materialised.
func (t *table) size() int {
	n := 0
	for i := range t.filled {
		n += int(t.filled[i].Load())
	}
	return n
}

// full reports whether every row of slot is materialised.
func (t *table) full(slot int) bool { return int(t.filled[slot].Load()) == t.nseg }

// invalidateSlot drops every materialised row at slot that the probe
// set can have influenced: the rows of the selves segments (a row always
// contains its own segment, but may be empty when nothing is reachable
// — the one case membership cannot witness), plus any row containing a
// probe segment. Both sets are bitsets over the segments. Only the
// touched slot's array is visited.
// The array is looked up under mu: an install that passed its
// generation check before this slot's generation moved has then
// finished storing, so the scan sees its row.
func (t *table) invalidateSlot(slot int, selves, probes bitset.Set) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sr := t.slots[slot].Load()
	if sr == nil {
		return
	}
	for seg := range *sr {
		p := (*sr)[seg].Load()
		if p == nil {
			continue
		}
		if selves.Has(seg) || (Row{p}).Intersects(probes) {
			(*sr)[seg].Store(nil)
			t.filled[slot].Add(-1)
		}
	}
}
