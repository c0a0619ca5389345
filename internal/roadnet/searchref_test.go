package roadnet

import (
	"container/heap"
	"math"
)

// The reference searches: Expand, ExpandMulti and ShortestPath as they
// were when each kept map distances and a boxed container/heap queue of
// its own. search_test.go holds the one search loop to them, visit for
// visit and path for path.

// pqItem is a priority-queue entry for Dijkstra-style searches over
// segments. cost is travel time in seconds or distance in metres depending
// on the caller's weight function.
type pqItem struct {
	seg  SegmentID
	cost float64
}

type segPQ []pqItem

func (q segPQ) Len() int            { return len(q) }
func (q segPQ) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q segPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *segPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *segPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// refExpand performs incremental network expansion (Papadias et al. [21], as
// modified in thesis §3.2.2): starting from src, it explores successor
// segments in increasing cumulative cost order and calls visit for every
// segment whose total cost (cost to finish traversing it, including the
// source segment itself at cost w(src)) is at most budget. visit returning
// false prunes expansion beyond that segment. The source segment is
// visited first.
func (n *Network) refExpand(src SegmentID, budget float64, w WeightFunc, visit func(id SegmentID, cost float64) bool) {
	if src < 0 || int(src) >= len(n.segments) {
		return
	}
	dist := map[SegmentID]float64{}
	pq := &segPQ{}
	start := w(src)
	if start > budget {
		return
	}
	dist[src] = start
	heap.Push(pq, pqItem{src, start})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if d, ok := dist[it.seg]; !ok || it.cost > d {
			continue // stale entry
		}
		if !visit(it.seg, it.cost) {
			continue
		}
		out := n.Outgoing(it.seg)
		for _, next := range out {
			if next == n.segments[it.seg].Reverse && len(out) > 1 {
				continue // no immediate U-turns except at dead ends
			}
			c := it.cost + w(next)
			if c > budget || math.IsInf(c, 1) {
				continue
			}
			if d, ok := dist[next]; !ok || c < d {
				dist[next] = c
				heap.Push(pq, pqItem{next, c})
			}
		}
	}
}

// refExpandMulti runs refExpand from several sources simultaneously, reporting
// for each reached segment the minimum cost and the source index that
// achieved it. Used by the m-query bounding-region search to attribute
// segments to their nearest start location (Algorithm 3, line 8).
func (n *Network) refExpandMulti(srcs []SegmentID, budget float64, w WeightFunc, visit func(id SegmentID, cost float64, srcIdx int) bool) {
	type state struct {
		cost float64
		src  int
	}
	dist := map[SegmentID]state{}
	pq := &multiPQ{}
	for i, s := range srcs {
		if s < 0 || int(s) >= len(n.segments) {
			continue
		}
		c := w(s)
		if c > budget {
			continue
		}
		if cur, ok := dist[s]; !ok || c < cur.cost {
			dist[s] = state{c, i}
			heap.Push(pq, multiItem{s, c, i})
		}
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(multiItem)
		if cur, ok := dist[it.seg]; !ok || it.cost > cur.cost || cur.src != it.src {
			continue
		}
		if !visit(it.seg, it.cost, it.src) {
			continue
		}
		out := n.Outgoing(it.seg)
		for _, next := range out {
			if next == n.segments[it.seg].Reverse && len(out) > 1 {
				continue
			}
			c := it.cost + w(next)
			if c > budget || math.IsInf(c, 1) {
				continue
			}
			if cur, ok := dist[next]; !ok || c < cur.cost {
				dist[next] = state{c, it.src}
				heap.Push(pq, multiItem{next, c, it.src})
			}
		}
	}
}

type multiItem struct {
	seg  SegmentID
	cost float64
	src  int
}

type multiPQ []multiItem

func (q multiPQ) Len() int            { return len(q) }
func (q multiPQ) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q multiPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *multiPQ) Push(x interface{}) { *q = append(*q, x.(multiItem)) }
func (q *multiPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// refShortestPath returns the minimum-cost segment sequence from src to dst
// (both inclusive) under w, and the total cost. found is false when dst is
// unreachable. src == dst returns the single-segment path.
func (n *Network) refShortestPath(src, dst SegmentID, w WeightFunc) (path []SegmentID, cost float64, found bool) {
	if src < 0 || dst < 0 || int(src) >= len(n.segments) || int(dst) >= len(n.segments) {
		return nil, 0, false
	}
	dist := map[SegmentID]float64{src: w(src)}
	prev := map[SegmentID]SegmentID{}
	pq := &segPQ{{src, dist[src]}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if d, ok := dist[it.seg]; !ok || it.cost > d {
			continue
		}
		if it.seg == dst {
			// Reconstruct.
			var rev []SegmentID
			for at := dst; ; {
				rev = append(rev, at)
				p, ok := prev[at]
				if !ok {
					break
				}
				at = p
			}
			path = make([]SegmentID, len(rev))
			for i, s := range rev {
				path[len(rev)-1-i] = s
			}
			return path, it.cost, true
		}
		out := n.Outgoing(it.seg)
		for _, next := range out {
			if next == n.segments[it.seg].Reverse && len(out) > 1 {
				continue
			}
			c := it.cost + w(next)
			if math.IsInf(c, 1) {
				continue
			}
			if d, ok := dist[next]; !ok || c < d {
				dist[next] = c
				prev[next] = it.seg
				heap.Push(pq, pqItem{next, c})
			}
		}
	}
	return nil, 0, false
}
