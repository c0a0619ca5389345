package shard

import (
	"context"

	"streach/internal/conindex"
	"streach/internal/core"
	"streach/internal/roadnet"
)

// rowRouter is the cluster's sharded core.RowSource: every adjacency-row
// fetch of the bounding phase resolves through the Con-Index slice of
// the shard owning the segment, so one logical bounding-region search
// scatters its row traffic across the partition without the algorithms
// (SQMB, MQMB's overlap rule, the reverse pipeline) knowing. Each
// resolution is charged to the owning shard's row counter. One router
// per plan; not safe for concurrent use, exactly like a conindex.Pin.
type rowRouter struct {
	c       *Cluster
	fetched int64
}

func (c *Cluster) newRowRouter() core.RowSource {
	return &rowRouter{c: c}
}

// slice routes one resolution to the owning shard's slice.
func (r *rowRouter) slice(seg roadnet.SegmentID, slot int) *conindex.Slice {
	sh := r.c.shardOf(seg, slot)
	r.fetched++
	r.c.m.rows[sh].Add(1)
	return r.c.conSlices[sh]
}

func (r *rowRouter) FarRow(ctx context.Context, seg roadnet.SegmentID, slot int) (conindex.Row, error) {
	return r.slice(seg, slot).FarRow(ctx, seg, slot)
}

func (r *rowRouter) NearRow(ctx context.Context, seg roadnet.SegmentID, slot int) (conindex.Row, error) {
	return r.slice(seg, slot).NearRow(ctx, seg, slot)
}

func (r *rowRouter) FarReverseRow(ctx context.Context, seg roadnet.SegmentID, slot int) (conindex.Row, error) {
	return r.slice(seg, slot).FarReverseRow(ctx, seg, slot)
}

func (r *rowRouter) NearReverseRow(ctx context.Context, seg roadnet.SegmentID, slot int) (conindex.Row, error) {
	return r.slice(seg, slot).NearReverseRow(ctx, seg, slot)
}

// Stats mirrors conindex.Pin.Stats for the plan's RowStats accounting.
func (r *rowRouter) Stats() conindex.PinStats {
	return conindex.PinStats{Fetched: r.fetched}
}
