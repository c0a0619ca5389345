// Package roadnet models the directed road network G(V,E) that the
// reachability system operates on (thesis §2.1): road segments carry a
// unique ID, an adjacency list, a shape polyline, a length, a direction
// indicator, a road class, and an MBR. The package also provides the
// pre-processing road re-segmentation step (§3.1), the flat search graph
// (CSR successor and predecessor lists with the no-U-turn rule applied)
// with the one incremental network expansion every shortest-path search
// runs on it, and a synthetic metropolis generator standing in for the
// Shenzhen network (see DESIGN.md §2).
package roadnet

import (
	"fmt"
	"sort"
	"sync"

	"streach/internal/geo"
	"streach/internal/rtree"
)

// SegmentID identifies a road segment within a Network.
type SegmentID int32

// NoSegment is the invalid segment sentinel.
const NoSegment SegmentID = -1

// RoadClass describes the level of a road (thesis §2.1 "type value").
type RoadClass uint8

const (
	// Highway is a limited-access high speed road.
	Highway RoadClass = iota
	// Primary is a main arterial road.
	Primary
	// Secondary is a local low-speed road.
	Secondary
)

// String implements fmt.Stringer.
func (c RoadClass) String() string {
	switch c {
	case Highway:
		return "highway"
	case Primary:
		return "primary"
	case Secondary:
		return "secondary"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// FreeFlowSpeed returns the nominal uncongested speed for the class in m/s.
func (c RoadClass) FreeFlowSpeed() float64 {
	switch c {
	case Highway:
		return 27.8 // ~100 km/h
	case Primary:
		return 13.9 // ~50 km/h
	default:
		return 8.3 // ~30 km/h
	}
}

// Segment is one directed road segment.
type Segment struct {
	ID      SegmentID
	Shape   geo.Polyline // intermediate points, >= 2 (terminals at ends)
	Length  float64      // metres, cached Shape.Length()
	Class   RoadClass
	OneWay  bool
	Box     geo.MBR
	From    int32     // vertex index of the entry intersection
	To      int32     // vertex index of the exit intersection
	Reverse SegmentID // the opposite-direction twin, or NoSegment for one-way roads
}

// Start returns the segment's entry terminal point.
func (s *Segment) Start() geo.Point { return s.Shape[0] }

// End returns the segment's exit terminal point.
func (s *Segment) End() geo.Point { return s.Shape[len(s.Shape)-1] }

// Midpoint returns the point halfway along the segment.
func (s *Segment) Midpoint() geo.Point { return s.Shape.PointAt(s.Length / 2) }

// Network is an immutable directed road network. Build one with a Builder
// or Generate, then optionally Resegment it.
type Network struct {
	segments []Segment
	// out[v] lists segment IDs leaving vertex v; in[v] lists those arriving.
	out   [][]SegmentID
	in    [][]SegmentID
	verts []geo.Point
	// spatial is an R-tree over segment MBRs for location snapping.
	spatial *rtree.Tree
	bounds  geo.MBR
	// g is the search graph (see graph), scratch pools its searches'
	// working state (see Scratch).
	g       graph
	scratch sync.Pool
}

// NumSegments returns the number of directed segments.
func (n *Network) NumSegments() int { return len(n.segments) }

// NumVertices returns the number of intersections.
func (n *Network) NumVertices() int { return len(n.verts) }

// Segment returns the segment with the given ID. It panics on an invalid
// ID, mirroring slice indexing; callers hold IDs produced by this network.
func (n *Network) Segment(id SegmentID) *Segment { return &n.segments[id] }

// Vertex returns the location of intersection v.
func (n *Network) Vertex(v int32) geo.Point { return n.verts[v] }

// Bounds returns the MBR of the whole network.
func (n *Network) Bounds() geo.MBR { return n.bounds }

// Outgoing returns the segments leaving segment id's exit intersection:
// the "adjacent list of the connected road segments" from the thesis.
func (n *Network) Outgoing(id SegmentID) []SegmentID {
	return n.out[n.segments[id].To]
}

// Incoming returns the segments arriving at segment id's entry intersection.
func (n *Network) Incoming(id SegmentID) []SegmentID {
	return n.in[n.segments[id].From]
}

// Neighbors returns all segments adjacent to id in either travel
// direction: successors, predecessors, and the reverse twin. This is the
// neighbor(r) set used by the trace back search (Algorithm 2).
func (n *Network) Neighbors(id SegmentID) []SegmentID {
	s := &n.segments[id]
	var out []SegmentID
	seen := map[SegmentID]bool{id: true}
	add := func(x SegmentID) {
		if x >= 0 && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for _, x := range n.out[s.To] {
		add(x)
	}
	for _, x := range n.in[s.From] {
		add(x)
	}
	for _, x := range n.out[s.From] {
		add(x)
	}
	for _, x := range n.in[s.To] {
		add(x)
	}
	add(s.Reverse)
	return out
}

// SnapPoint returns the segment nearest to p together with the projection
// distance in metres and the arc-length offset along the segment. ok is
// false when the network is empty.
func (n *Network) SnapPoint(p geo.Point) (id SegmentID, distMeters, alongMeters float64, ok bool) {
	if n.spatial == nil || n.spatial.Len() == 0 {
		return NoSegment, 0, 0, false
	}
	// Take a generous candidate set by MBR distance, then refine with the
	// exact polyline projection: an MBR can be near while the polyline is
	// not.
	cands := n.spatial.Nearest(p, 8)
	best := SegmentID(-1)
	bestDist := 1e18
	bestAlong := 0.0
	for _, c := range cands {
		seg := &n.segments[c.ID]
		_, d, along := seg.Shape.Project(p)
		if d < bestDist {
			best, bestDist, bestAlong = seg.ID, d, along
		}
	}
	if best < 0 {
		return NoSegment, 0, 0, false
	}
	return best, bestDist, bestAlong, true
}

// CandidatesNear returns up to limit segments whose MBRs are within radius
// metres of p, nearest first. Used by the map matcher.
func (n *Network) CandidatesNear(p geo.Point, radius float64, limit int) []SegmentID {
	items := n.spatial.NearestWithin(p, radius, limit)
	out := make([]SegmentID, len(items))
	for i, it := range items {
		out[i] = SegmentID(it.ID)
	}
	return out
}

// TotalLength returns the sum of all segment lengths in metres. Twin
// directions of two-way roads are counted separately, matching how the
// evaluation reports "total length of covered road segments".
func (n *Network) TotalLength() float64 {
	var total float64
	for i := range n.segments {
		total += n.segments[i].Length
	}
	return total
}

// Stats summarises the network for Table 4.1-style reporting.
type Stats struct {
	Segments    int
	Vertices    int
	TotalKm     float64
	ByClass     map[RoadClass]int
	MeanLengthM float64
	MaxLengthM  float64
}

// Stats computes summary statistics.
func (n *Network) Stats() Stats {
	st := Stats{
		Segments: len(n.segments),
		Vertices: len(n.verts),
		ByClass:  map[RoadClass]int{},
	}
	var total, max float64
	for i := range n.segments {
		l := n.segments[i].Length
		total += l
		if l > max {
			max = l
		}
		st.ByClass[n.segments[i].Class]++
	}
	st.TotalKm = total / 1000
	if len(n.segments) > 0 {
		st.MeanLengthM = total / float64(len(n.segments))
	}
	st.MaxLengthM = max
	return st
}

// finalize computes derived structures after segments and vertices are set.
func (n *Network) finalize() {
	n.out = make([][]SegmentID, len(n.verts))
	n.in = make([][]SegmentID, len(n.verts))
	items := make([]rtree.Item, len(n.segments))
	for i := range n.segments {
		s := &n.segments[i]
		s.Length = s.Shape.Length()
		s.Box = s.Shape.MBR()
		n.out[s.From] = append(n.out[s.From], s.ID)
		n.in[s.To] = append(n.in[s.To], s.ID)
		items[i] = rtree.Item{ID: int64(s.ID), Box: s.Box}
		n.bounds.ExpandMBR(s.Box)
	}
	for v := range n.out {
		sortSegs(n.out[v])
		sortSegs(n.in[v])
	}
	n.buildGraph()
	n.spatial = rtree.BulkLoad(items)
}

func sortSegs(s []SegmentID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
