package router

import (
	"container/heap"
	"context"
	"fmt"

	"streach/internal/roadnet"
)

// refRoute is the route search as it was with map labels and a boxed
// container/heap queue of its own; route_test.go holds route to it.

type routeItem struct {
	seg roadnet.SegmentID
	at  float64 // arrival time at the segment's entry, seconds of day
}

type routePQ []routeItem

func (q routePQ) Len() int            { return len(q) }
func (q routePQ) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q routePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *routePQ) Push(x interface{}) { *q = append(*q, x.(routeItem)) }
func (q *routePQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func (r *Router) refRoute(ctx context.Context, src, dst roadnet.SegmentID, departSec float64, speedAt func(roadnet.SegmentID, float64) float64) (*Route, error) {
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
	arrive := map[roadnet.SegmentID]float64{src: departSec}
	prev := map[roadnet.SegmentID]roadnet.SegmentID{}
	pq := &routePQ{{src, departSec}}
	for pops := 0; pq.Len() > 0; pops++ {
		if pops%ctxCheckInterval == 0 && pops > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		it := heap.Pop(pq).(routeItem)
		if a, ok := arrive[it.seg]; !ok || it.at > a {
			continue
		}
		sp := speedAt(it.seg, it.at)
		if sp <= 0 {
			continue
		}
		exit := it.at + r.net.Segment(it.seg).Length/sp
		if it.seg == dst {
			path := refReconstruct(prev, dst)
			var dist float64
			for _, s := range path {
				dist += r.net.Segment(s).Length
			}
			return &Route{Path: path, TravelTimeSec: exit - departSec, DistanceMeters: dist}, nil
		}
		succ := r.net.Outgoing(it.seg)
		rev := r.net.Segment(it.seg).Reverse
		for _, next := range succ {
			if next == rev && len(succ) > 1 {
				continue
			}
			if a, ok := arrive[next]; !ok || exit < a {
				arrive[next] = exit
				prev[next] = it.seg
				heap.Push(pq, routeItem{next, exit})
			}
		}
	}
	return nil, fmt.Errorf("router: no route from %d to %d", src, dst)
}

func refReconstruct(prev map[roadnet.SegmentID]roadnet.SegmentID, dst roadnet.SegmentID) []roadnet.SegmentID {
	var rev []roadnet.SegmentID
	for at := dst; ; {
		rev = append(rev, at)
		p, ok := prev[at]
		if !ok {
			break
		}
		at = p
	}
	out := make([]roadnet.SegmentID, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}
