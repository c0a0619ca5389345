package roadnet

import "math"

// WeightFunc returns the cost of traversing a segment. Costs must be
// positive. Typical weights: travel time (length/speed) or plain length.
type WeightFunc func(id SegmentID) float64

// DistanceWeight weights each segment by its length in metres.
func (n *Network) DistanceWeight() WeightFunc {
	return func(id SegmentID) float64 { return n.segments[id].Length }
}

// TravelTimeWeight weights each segment by length divided by speed(id)
// (m/s). Speeds of zero or below yield an effectively unreachable segment.
func (n *Network) TravelTimeWeight(speed func(id SegmentID) float64) WeightFunc {
	return func(id SegmentID) float64 {
		v := speed(id)
		if v <= 0 {
			return math.Inf(1)
		}
		return n.segments[id].Length / v
	}
}

// Direction is the way a search walks the graph.
type Direction uint8

const (
	// Forward walks successors: the segments entered after a segment.
	Forward Direction = iota
	// Backward walks predecessors: the segments driven just before one.
	Backward
)

// graph is the network flattened for the search kernels, built once in
// finalize: a pop loads a length and an offset pair, not a whole Segment.
type graph struct {
	// length[s] is Segment(s).Length.
	length []float64
	// adj[d][off[d][s]:off[d][s+1]] are the segments a search in
	// direction d may move to from s.
	off [2][]int32
	adj [2][]SegmentID
}

// buildGraph fills n.g from the sorted vertex lists. The Forward list of
// s is Outgoing(s) less s's reverse twin when s's exit has another way
// out: no U-turns but at dead ends. The Backward list is Incoming(s)
// less the twin when s's entry has another way in. The two are each
// other's transpose except at a vertex whose in- and out-degree differ
// beside a twin pair (DESIGN.md §5).
func (n *Network) buildGraph() {
	g := &n.g
	g.length = make([]float64, len(n.segments))
	for d := range g.off {
		g.off[d] = make([]int32, 1, len(n.segments)+1)
	}
	for i := range n.segments {
		s := &n.segments[i]
		g.length[i] = s.Length
		for d, next := range [2][]SegmentID{n.out[s.To], n.in[s.From]} {
			for _, x := range next {
				if x != s.Reverse || len(next) == 1 {
					g.adj[d] = append(g.adj[d], x)
				}
			}
			g.off[d] = append(g.off[d], int32(len(g.adj[d])))
		}
	}
}

// Lengths returns every segment's length in metres, indexed by ID. The
// slice is the network's own: callers must not modify it.
func (n *Network) Lengths() []float64 { return n.g.length }

// Adjacency returns the search graph in direction dir, in CSR form:
// adj[off[s]:off[s+1]] are the segments a search may move to from s.
// The slices are the network's own: callers must not modify them.
func (n *Network) Adjacency(dir Direction) (off []int32, adj []SegmentID) {
	return n.g.off[dir], n.g.adj[dir]
}

// HeapItem is a Heap entry: a segment, the cost it was pushed at, and
// the index of the source that cost was reached from.
type HeapItem struct {
	Seg  SegmentID
	Src  int32
	Cost float64
}

// Heap is a binary min-heap on Cost. Push and Pop make container/heap's
// comparisons and moves exactly, so entries pop in the order a
// container/heap of the same pushes would pop them, ties included,
// without boxing each entry in an interface.
type Heap []HeapItem

// Push adds it.
func (h *Heap) Push(it HeapItem) {
	q := append(*h, it)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.Cost < q[i].Cost) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = it
	*h = q
}

// Pop removes and returns the cheapest entry; the heap must not be
// empty.
func (h *Heap) Pop() HeapItem {
	q := *h
	n := len(q) - 1
	top, x := q[0], q[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && q[j+1].Cost < q[j].Cost {
			j++
		}
		if !(q[j].Cost < x.Cost) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = x
	*h = q[:n]
	return top
}

// Scratch is one search's working state: a cost and a parent per
// segment, valid only where the segment's stamp is the search's own, so
// the arrays are never cleared between searches, and the heap. Check one
// out with GetScratch and return it with PutScratch.
type Scratch struct {
	cost   []float64
	parent []SegmentID
	stamp  []uint32
	cur    uint32
	Heap   Heap
}

// GetScratch checks out scratch for one search over n, with no segment
// labelled and an empty heap.
func (n *Network) GetScratch() *Scratch {
	sc, _ := n.scratch.Get().(*Scratch)
	if sc == nil {
		k := len(n.segments)
		sc = &Scratch{cost: make([]float64, k), parent: make([]SegmentID, k), stamp: make([]uint32, k)}
	}
	if sc.cur == math.MaxUint32 { // stamp wrap: clear instead of colliding
		clear(sc.stamp)
		sc.cur = 0
	}
	sc.cur++
	sc.Heap = sc.Heap[:0]
	return sc
}

// PutScratch returns scratch taken from GetScratch.
func (n *Network) PutScratch(sc *Scratch) { n.scratch.Put(sc) }

// Cost returns the cost s was last labelled with; ok is false when this
// search has not labelled s.
func (sc *Scratch) Cost(s SegmentID) (cost float64, ok bool) {
	return sc.cost[s], sc.stamp[s] == sc.cur
}

// Label records s as reached at cost from parent (NoSegment for a
// source).
func (sc *Scratch) Label(s SegmentID, cost float64, parent SegmentID) {
	sc.cost[s], sc.parent[s], sc.stamp[s] = cost, parent, sc.cur
}

// Path returns the segments from a source to the labelled dst, through
// the labels' parents.
func (sc *Scratch) Path(dst SegmentID) []SegmentID {
	k := 0
	for at := dst; at != NoSegment; at = sc.parent[at] {
		k++
	}
	path := make([]SegmentID, k)
	for at := dst; at != NoSegment; at = sc.parent[at] {
		k--
		path[k] = at
	}
	return path
}

// Source is a search's starting segment and the cost it starts at.
type Source struct {
	Seg  SegmentID
	Cost float64
}

// Step is a visit's verdict on how a search goes on.
type Step uint8

const (
	// Continue expands the visited segment's neighbours.
	Continue Step = iota
	// Prune reaches nothing through the visited segment.
	Prune
	// Stop ends the search.
	Stop
)

// VisitFunc is called once for every segment a search settles, with its
// cost and the index of the source that cost was reached from.
type VisitFunc func(id SegmentID, cost float64, src int) Step

// Search is the incremental network expansion (Papadias et al. [21], as
// modified in thesis §3.2.2) that every shortest-path search here runs.
// From srcs it walks the graph in direction dir in increasing cost, and
// calls visit for every segment whose cost is at most budget. A
// segment's cost is its source's start cost plus w of every segment
// after the source on the way to it, itself included; a cost of +Inf is
// never reached. A source out of range or dearer than budget is skipped;
// of two sources on one segment the cheaper, then the earlier, wins.
func (n *Network) Search(dir Direction, srcs []Source, budget float64, w WeightFunc, visit VisitFunc) {
	sc := n.GetScratch()
	n.search(sc, dir, srcs, budget, w, visit)
	n.PutScratch(sc)
}

// search is Search on checked-out scratch, whose labels the caller may
// read afterwards (ShortestPath reads the parents).
func (n *Network) search(sc *Scratch, dir Direction, srcs []Source, budget float64, w WeightFunc, visit VisitFunc) {
	off, adj := n.g.off[dir], n.g.adj[dir]
	for i, s := range srcs {
		if s.Seg < 0 || int(s.Seg) >= len(n.segments) || s.Cost > budget {
			continue
		}
		if c, ok := sc.Cost(s.Seg); !ok || s.Cost < c {
			sc.Label(s.Seg, s.Cost, NoSegment)
			sc.Heap.Push(HeapItem{s.Seg, int32(i), s.Cost})
		}
	}
	for len(sc.Heap) > 0 {
		it := sc.Heap.Pop()
		if it.Cost > sc.cost[it.Seg] {
			continue // stale entry
		}
		switch visit(it.Seg, it.Cost, int(it.Src)) {
		case Prune:
			continue
		case Stop:
			return
		}
		for _, next := range adj[off[it.Seg]:off[it.Seg+1]] {
			c := it.Cost + w(next)
			if c > budget || math.IsInf(c, 1) {
				continue
			}
			if d, ok := sc.Cost(next); !ok || c < d {
				sc.Label(next, c, it.Seg)
				sc.Heap.Push(HeapItem{next, it.Src, c})
			}
		}
	}
}

// keepOn maps a bool visit (true: expand further) to its Step.
func keepOn(ok bool) Step {
	if ok {
		return Continue
	}
	return Prune
}

// Expand searches forward from src, which costs w(src) itself, and calls
// visit for every segment within budget, src first. visit returning
// false prunes the expansion beyond that segment.
func (n *Network) Expand(src SegmentID, budget float64, w WeightFunc, visit func(id SegmentID, cost float64) bool) {
	if src < 0 || int(src) >= len(n.segments) {
		return
	}
	n.Search(Forward, []Source{{src, w(src)}}, budget, w, func(id SegmentID, cost float64, _ int) Step {
		return keepOn(visit(id, cost))
	})
}

// ExpandMulti runs Expand from several sources simultaneously, reporting
// for each reached segment the minimum cost and the source index that
// achieved it. Used by the m-query bounding-region search to attribute
// segments to their nearest start location (Algorithm 3, line 8).
func (n *Network) ExpandMulti(srcs []SegmentID, budget float64, w WeightFunc, visit func(id SegmentID, cost float64, srcIdx int) bool) {
	sources := make([]Source, len(srcs))
	for i, s := range srcs {
		sources[i].Seg = s
		if s >= 0 && int(s) < len(n.segments) {
			sources[i].Cost = w(s)
		}
	}
	n.Search(Forward, sources, budget, w, func(id SegmentID, cost float64, src int) Step {
		return keepOn(visit(id, cost, src))
	})
}

// ShortestPath returns the minimum-cost segment sequence from src to dst
// (both inclusive) under w, and the total cost. found is false when dst is
// unreachable. src == dst returns the single-segment path.
func (n *Network) ShortestPath(src, dst SegmentID, w WeightFunc) (path []SegmentID, cost float64, found bool) {
	if src < 0 || dst < 0 || int(src) >= len(n.segments) || int(dst) >= len(n.segments) {
		return nil, 0, false
	}
	sc := n.GetScratch()
	defer n.PutScratch(sc)
	n.search(sc, Forward, []Source{{src, w(src)}}, math.Inf(1), w, func(id SegmentID, c float64, _ int) Step {
		if id != dst {
			return Continue
		}
		path, cost, found = sc.Path(dst), c, true
		return Stop
	})
	return path, cost, found
}

// ReachableFrom returns how many segments a search from src in direction
// dir reaches with no budget: Forward counts the segments src can reach,
// Backward those that can reach src.
func (n *Network) ReachableFrom(src SegmentID, dir Direction) int {
	count := 0
	n.Search(dir, []Source{{src, 1}}, math.Inf(1), func(SegmentID) float64 { return 1 }, func(SegmentID, float64, int) Step {
		count++
		return Continue
	})
	return count
}
