package conindex

import (
	"context"

	"streach/internal/roadnet"
)

// Pin is the plan-scoped core.RowSource over the index's own tables: it
// resolves every row straight through them — a hit there is two atomic
// loads, so there is nothing a plan-local memo could save — and counts
// the resolutions for the plan's sharing accounting. Not safe for
// concurrent use; create one per query plan.
type Pin struct {
	x       *Index
	fetched int64
}

// NewPin returns a pin over the index.
func (x *Index) NewPin() *Pin {
	return &Pin{x: x}
}

// PinStats reports a row source's activity: Fetched counts the row
// resolutions a plan made through the index (its own hit/materialise
// accounting applies there).
type PinStats struct {
	Fetched int64
}

// Stats snapshots the pin counter.
func (p *Pin) Stats() PinStats {
	return PinStats{Fetched: p.fetched}
}

// FarRow is FarRowCtx, counted.
func (p *Pin) FarRow(ctx context.Context, seg roadnet.SegmentID, slot int) (Row, error) {
	p.fetched++
	return p.x.FarRowCtx(ctx, seg, slot)
}

// NearRow is NearRowCtx, counted.
func (p *Pin) NearRow(ctx context.Context, seg roadnet.SegmentID, slot int) (Row, error) {
	p.fetched++
	return p.x.NearRowCtx(ctx, seg, slot)
}

// FarReverseRow is FarReverseRowCtx, counted.
func (p *Pin) FarReverseRow(ctx context.Context, seg roadnet.SegmentID, slot int) (Row, error) {
	p.fetched++
	return p.x.FarReverseRowCtx(ctx, seg, slot)
}

// NearReverseRow is NearReverseRowCtx, counted.
func (p *Pin) NearReverseRow(ctx context.Context, seg roadnet.SegmentID, slot int) (Row, error) {
	p.fetched++
	return p.x.NearReverseRowCtx(ctx, seg, slot)
}
