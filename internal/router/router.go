// Package router answers route queries (thesis §5.2) with time-dependent
// travel times derived from the trajectory data: each segment's traversal
// time depends on the mean observed speed in the Δt slot the mover enters
// it, so the same origin-destination pair gets different routes and ETAs
// at 03:00 and 18:00. A static free-flow router is included for the
// comparison the thesis's introduction draws.
package router

import (
	"context"
	"fmt"
	"math"

	"streach/internal/conindex"
	"streach/internal/roadnet"
)

// ctxCheckInterval is how many Dijkstra pops the route search runs
// between context checks.
const ctxCheckInterval = 256

// Router plans routes over a network with per-slot speed statistics.
type Router struct {
	net *roadnet.Network
	con *conindex.Index
}

// New wires a router over the network and the Con-Index speed statistics.
func New(net *roadnet.Network, con *conindex.Index) *Router {
	return &Router{net: net, con: con}
}

// Route is a planned journey.
type Route struct {
	// Path is the segment sequence, origin and destination inclusive.
	Path []roadnet.SegmentID
	// TravelTimeSec is the predicted door-to-door travel time.
	TravelTimeSec float64
	// DistanceMeters is the path length.
	DistanceMeters float64
}

// TimeDependent plans the fastest route from src to dst departing at
// departSec seconds after midnight, using mean observed speeds per slot.
// The traversal speed of each segment is taken from the slot in which it
// is entered (the usual FIFO approximation). The search checks ctx every
// ctxCheckInterval pops and returns its error on cancellation.
func (r *Router) TimeDependent(ctx context.Context, src, dst roadnet.SegmentID, departSec float64) (*Route, error) {
	return r.route(ctx, src, dst, departSec, func(seg roadnet.SegmentID, atSec float64) float64 {
		slot := int(atSec) / r.con.SlotSeconds()
		return r.con.MeanSpeed(seg, slot)
	})
}

// FreeFlow plans the static route at per-class free-flow speeds: the
// traditional time-invariant answer.
func (r *Router) FreeFlow(ctx context.Context, src, dst roadnet.SegmentID) (*Route, error) {
	return r.route(ctx, src, dst, 0, func(seg roadnet.SegmentID, _ float64) float64 {
		return r.net.Segment(seg).Class.FreeFlowSpeed()
	})
}

func (r *Router) route(ctx context.Context, src, dst roadnet.SegmentID, departSec float64, speedAt func(roadnet.SegmentID, float64) float64) (*Route, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := r.net.NumSegments()
	if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return nil, fmt.Errorf("router: segment out of range (src=%d dst=%d, %d segments)", src, dst, n)
	}
	if departSec < 0 || departSec >= 86400 {
		return nil, fmt.Errorf("router: departure %v is not a time of day", departSec)
	}
	// Labels are arrival times at a segment's entry. A segment's
	// traversal is charged when it pops, at the speed of the slot it is
	// entered in, so this loop is not roadnet.Search's.
	off, succ := r.net.Adjacency(roadnet.Forward)
	length := r.net.Lengths()
	sc := r.net.GetScratch()
	defer r.net.PutScratch(sc)
	sc.Label(src, departSec, roadnet.NoSegment)
	sc.Heap.Push(roadnet.HeapItem{Seg: src, Cost: departSec})
	for pops := 0; len(sc.Heap) > 0; pops++ {
		if pops%ctxCheckInterval == 0 && pops > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		it := sc.Heap.Pop()
		if at, _ := sc.Cost(it.Seg); it.Cost > at {
			continue
		}
		sp := speedAt(it.Seg, it.Cost)
		if sp <= 0 {
			continue
		}
		exit := it.Cost + length[it.Seg]/sp
		if it.Seg == dst {
			path := sc.Path(dst)
			var dist float64
			for _, s := range path {
				dist += length[s]
			}
			return &Route{Path: path, TravelTimeSec: exit - departSec, DistanceMeters: dist}, nil
		}
		for _, next := range succ[off[it.Seg]:off[it.Seg+1]] {
			if at, ok := sc.Cost(next); !ok || exit < at {
				sc.Label(next, exit, it.Seg)
				sc.Heap.Push(roadnet.HeapItem{Seg: next, Cost: exit})
			}
		}
	}
	return nil, fmt.Errorf("router: no route from %d to %d", src, dst)
}

// validatePath reports whether the path is a connected forward walk.
// Exported for tests via Validate.
func (r *Router) validatePath(path []roadnet.SegmentID) error {
	for i := 1; i < len(path); i++ {
		connected := false
		for _, s := range r.net.Outgoing(path[i-1]) {
			if s == path[i] {
				connected = true
				break
			}
		}
		if !connected {
			return fmt.Errorf("router: path hop %d -> %d not adjacent", path[i-1], path[i])
		}
	}
	return nil
}

// Validate checks that a route's path is connected and its distance
// matches the summed segment lengths.
func (r *Router) Validate(route *Route) error {
	if len(route.Path) == 0 {
		return fmt.Errorf("router: empty path")
	}
	if err := r.validatePath(route.Path); err != nil {
		return err
	}
	var dist float64
	for _, s := range route.Path {
		dist += r.net.Segment(s).Length
	}
	if math.Abs(dist-route.DistanceMeters) > 1 {
		return fmt.Errorf("router: distance %v does not match path length %v", route.DistanceMeters, dist)
	}
	return nil
}
