package roadnet

import (
	"fmt"
	"math"

	"streach/internal/geo"
)

// Builder assembles a Network from raw roads. Vertices are deduplicated by
// snapping coordinates to a fine grid (~1 m), so roads that share an
// endpoint connect automatically.
type Builder struct {
	verts    []geo.Point
	vertIdx  map[[2]int64]int32
	segments []Segment
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{vertIdx: map[[2]int64]int32{}}
}

const vertexSnap = 1e-5 // ~1.1 m in latitude

func (b *Builder) vertex(p geo.Point) int32 {
	key := [2]int64{int64(math.Round(p.Lat / vertexSnap)), int64(math.Round(p.Lng / vertexSnap))}
	if v, ok := b.vertIdx[key]; ok {
		return v
	}
	v := int32(len(b.verts))
	b.verts = append(b.verts, p)
	b.vertIdx[key] = v
	return v
}

// AddRoad adds a road with the given shape. Two-way roads produce a pair
// of twin directed segments. It returns the forward segment's ID. A
// shape with fewer than two points, a NaN or infinite coordinate, a
// length that is zero or not finite, or a point off the globe (|lat| >
// 90 or |lng| > 180, which would overflow the vertex grid) is refused.
func (b *Builder) AddRoad(shape geo.Polyline, class RoadClass, oneWay bool) (SegmentID, error) {
	if len(shape) < 2 {
		return NoSegment, fmt.Errorf("roadnet: road shape needs >= 2 points, got %d", len(shape))
	}
	for j, p := range shape {
		if !finite(p.Lat) || !finite(p.Lng) {
			return NoSegment, fmt.Errorf("roadnet: road shape point %d (lat %v, lng %v) is not finite", j, p.Lat, p.Lng)
		}
	}
	// Finite points can still overflow the distance arithmetic.
	if l := shape.Length(); !finite(l) {
		return NoSegment, fmt.Errorf("roadnet: road from %v to %v has length %v", shape[0], shape[len(shape)-1], l)
	} else if l <= 0 {
		return NoSegment, fmt.Errorf("roadnet: zero-length road at %v", shape[0])
	}
	for j, p := range shape {
		if math.Abs(p.Lat) > 90 || math.Abs(p.Lng) > 180 {
			return NoSegment, fmt.Errorf("roadnet: road shape point %d (lat %v, lng %v) is out of range", j, p.Lat, p.Lng)
		}
	}
	fwd := SegmentID(len(b.segments))
	from := b.vertex(shape[0])
	to := b.vertex(shape[len(shape)-1])
	b.segments = append(b.segments, Segment{
		ID:      fwd,
		Shape:   shape,
		Class:   class,
		OneWay:  oneWay,
		From:    from,
		To:      to,
		Reverse: NoSegment,
	})
	if !oneWay {
		rev := SegmentID(len(b.segments))
		b.segments = append(b.segments, Segment{
			ID:      rev,
			Shape:   shape.Reverse(),
			Class:   class,
			OneWay:  false,
			From:    to,
			To:      from,
			Reverse: fwd,
		})
		b.segments[fwd].Reverse = rev
	}
	return fwd, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Build finalizes the network. The builder must not be reused afterwards.
func (b *Builder) Build() *Network {
	n := &Network{segments: b.segments, verts: b.verts}
	n.finalize()
	return n
}

// Resegment implements the pre-processing road re-segmentation step
// (thesis §3.1): every segment longer than granularity metres is chopped
// into pieces of at most granularity metres by inserting new intersection
// points, so that long roads (e.g. highways) do not blur the reachability
// result. Twin pairs are re-linked piecewise. The original network is not
// modified.
func Resegment(n *Network, granularity float64) (*Network, error) {
	if granularity <= 0 {
		return nil, fmt.Errorf("roadnet: granularity must be positive, got %v", granularity)
	}
	b := NewBuilder()

	// Chop each road once: two-way pairs are processed via their forward
	// member, and AddRoad re-creates the twin pieces, so twin pieces stay
	// aligned piecewise.
	done := make([]bool, len(n.segments))
	for i := range n.segments {
		s := &n.segments[i]
		if done[s.ID] {
			continue
		}
		done[s.ID] = true
		if s.Reverse >= 0 {
			done[s.Reverse] = true
		}
		pieces := chop(s.Shape, granularity)
		for _, p := range pieces {
			if _, err := b.AddRoad(p, s.Class, s.OneWay); err != nil {
				return nil, fmt.Errorf("roadnet: resegment %d: %w", s.ID, err)
			}
		}
	}
	return b.Build(), nil
}

// chop splits shape into consecutive polylines each of length at most g,
// using ceil(len/g) equal pieces so no sliver pieces appear.
func chop(shape geo.Polyline, g float64) []geo.Polyline {
	total := shape.Length()
	if total <= g {
		return []geo.Polyline{shape}
	}
	// The 1e-9 slack keeps float roundoff from bumping an exact multiple
	// of g into an extra sliver piece.
	k := int(math.Ceil(total/g - 1e-9))
	pieceLen := total / float64(k)
	out := make([]geo.Polyline, 0, k)
	rest := shape
	for i := 0; i < k-1; i++ {
		var head geo.Polyline
		head, rest = rest.SplitAt(pieceLen)
		out = append(out, head)
	}
	out = append(out, rest)
	return out
}
