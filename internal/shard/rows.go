package shard

import (
	"context"

	"streach/internal/bitset"
	"streach/internal/conindex"
	"streach/internal/core"
	"streach/internal/roadnet"
)

// rowRouter is the cluster's sharded core.RowSource: a bounding round's
// segments are grouped by owning shard and each group resolves through
// a pin over that shard's Con-Index slice (hits ORed in one pass, cold
// rows built on every core — see conindex.Pin.OrRows), so one logical
// bounding-region search scatters its row traffic across the partition
// without the algorithms (SQMB, MQMB's overlap rule, the reverse
// pipeline) knowing. Each resolution is charged to the owning shard's
// row counter. One router per plan; not safe for concurrent use, exactly
// like a conindex.Pin.
type rowRouter struct {
	c *Cluster
	// pins holds one pin per shard, made when a round first reaches the
	// shard; groups is one round's segments per shard, reused.
	pins   []*conindex.Pin
	groups [][]roadnet.SegmentID
}

func (c *Cluster) newRowRouter() core.RowSource {
	return &rowRouter{c: c}
}

// pin returns the plan's pin over shard sh's slice, charging it n rows.
func (r *rowRouter) pin(sh, n int) *conindex.Pin {
	if r.pins == nil {
		r.pins = make([]*conindex.Pin, len(r.c.conSlices))
	}
	if r.pins[sh] == nil {
		r.pins[sh] = r.c.conSlices[sh].NewPin()
	}
	r.c.m.rows[sh].Add(int64(n))
	return r.pins[sh]
}

func (r *rowRouter) Row(ctx context.Context, kind conindex.Kind, seg roadnet.SegmentID, slot int) (conindex.Row, error) {
	return r.pin(r.c.part.Owner(seg), 1).Row(ctx, kind, seg, slot)
}

func (r *rowRouter) OrRows(ctx context.Context, kind conindex.Kind, segs []roadnet.SegmentID, slot int, dst bitset.Set) error {
	if r.groups == nil {
		r.groups = make([][]roadnet.SegmentID, r.c.Shards())
	}
	for sh := range r.groups {
		r.groups[sh] = r.groups[sh][:0]
	}
	for _, seg := range segs {
		sh := r.c.part.Owner(seg)
		r.groups[sh] = append(r.groups[sh], seg)
	}
	for sh, group := range r.groups {
		if len(group) == 0 {
			continue
		}
		if err := r.pin(sh, len(group)).OrRows(ctx, kind, group, slot, dst); err != nil {
			return err
		}
	}
	return nil
}

// Stats sums the shard pins for the plan's accounting.
func (r *rowRouter) Stats() conindex.PinStats {
	var st conindex.PinStats
	for _, p := range r.pins {
		if p != nil {
			st = st.Add(p.Stats())
		}
	}
	return st
}
