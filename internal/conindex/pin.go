package conindex

import (
	"context"

	"streach/internal/bitset"
	"streach/internal/roadnet"
)

// Pin is the plan-scoped core.RowSource over the index's tables (or,
// from Slice.NewPin, over one shard's slice of them). A bounding round
// is one OrRows call: the hits are ORed in one lock-free pass over the
// table, the misses collected, and two or more of them materialised on
// every core (see Index.materialise) before they are ORed in too. The
// pin counts what it resolved and what it built itself, which is what a
// query's Metrics report — the index-wide Stats cannot tell concurrent
// queries apart. Not safe for concurrent use (the workers of one round
// are the pin's own and have returned before OrRows does); create one
// per query plan.
type Pin struct {
	x     *Index
	only  *Slice // set: rows resolve only inside the slice
	stats PinStats
	// misses and rows hold one round's cold segments and their rows;
	// kept so that a round allocates only when it outgrows the last.
	misses []roadnet.SegmentID
	rows   []Row
}

// NewPin returns a pin over the index.
func (x *Index) NewPin() *Pin {
	return &Pin{x: x}
}

// PinStats reports a row source's activity: Fetched counts the rows a
// plan resolved through it, Materialised those it had to build by
// running an expansion itself (waiting on another caller's expansion of
// the same key is a hit, as in Stats).
type PinStats struct {
	Fetched, Materialised int64
}

// Hits is the rows resolved without running an expansion.
func (s PinStats) Hits() int64 { return s.Fetched - s.Materialised }

// Add returns s + o.
func (s PinStats) Add(o PinStats) PinStats {
	return PinStats{Fetched: s.Fetched + o.Fetched, Materialised: s.Materialised + o.Materialised}
}

// Sub returns s - o.
func (s PinStats) Sub(o PinStats) PinStats {
	return PinStats{Fetched: s.Fetched - o.Fetched, Materialised: s.Materialised - o.Materialised}
}

// Stats snapshots the pin's counters.
func (p *Pin) Stats() PinStats { return p.stats }

// Row resolves a single row (see Index.RowCtx), counted.
func (p *Pin) Row(ctx context.Context, k Kind, seg roadnet.SegmentID, slot int) (Row, error) {
	if err := p.only.admit(seg); err != nil {
		return Row{}, err
	}
	p.stats.Fetched++
	r, built, err := p.x.resolve(ctx, k, seg, p.x.normSlot(slot))
	if built {
		p.stats.Materialised++
	}
	return r, err
}

// OrRows ORs the kind rows of segs at slot into dst, a bitset over the
// segment space: one bounding round. An all-hit round is one table
// lookup per segment and one counter update, with no goroutine and no
// allocation. Misses go through the same singleflight as a single Row
// (concurrent queries on one cold slot still expand each key once, and
// an ingest fold mid-round keeps a stale row out of the table); a single
// miss is expanded in place, more fan out over min(GOMAXPROCS, misses)
// goroutines. OR is commutative, so the union does not depend on which
// worker built what. ctx cancels the expansions within one checkpoint
// interval; on error dst holds a partial union.
func (p *Pin) OrRows(ctx context.Context, k Kind, segs []roadnet.SegmentID, slot int, dst bitset.Set) error {
	if err := p.only.admit(segs...); err != nil {
		return err
	}
	x := p.x
	slot = x.normSlot(slot)
	p.misses = x.adjTables()[k].orHits(slot, segs, dst, p.misses[:0])
	p.stats.Fetched += int64(len(segs))
	x.stats.hits.Add(int64(len(segs) - len(p.misses)))
	if len(p.misses) == 0 {
		return nil
	}
	return p.orMisses(ctx, k, slot, dst)
}

// orMisses materialises the round's cold rows and ORs them into dst.
func (p *Pin) orMisses(ctx context.Context, k Kind, slot int, dst bitset.Set) error {
	n := len(p.misses)
	if cap(p.rows) < n {
		p.rows = make([]Row, n)
	}
	rows := p.rows[:n]
	built, err := p.x.materialise(ctx, 0, n, func(i int) rowKey { return rowKey{k, p.misses[i], slot} }, rows)
	p.stats.Materialised += built
	if err != nil {
		return err
	}
	for _, r := range rows {
		r.OrInto(dst)
	}
	return nil
}
