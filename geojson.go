package streach

import (
	"fmt"
	"slices"
	"strconv"

	"streach/internal/jsonenc"
	"streach/internal/roadnet"
)

// GeoJSON renders the region as a FeatureCollection of LineStrings, one
// per reachable road segment, with the segment ID and road class as
// properties. The output plugs directly into Leaflet/Mapbox/geojson.io,
// matching how the thesis visualises Prob-reachable regions (Fig 4.2,
// 4.4, 4.6, 4.9).
func (r *Region) GeoJSON() (string, error) {
	out, err := r.AppendGeoJSON(nil)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// AppendGeoJSON appends the GeoJSON rendering to dst and returns the
// extended buffer — the form a server encodes into a reused buffer. The
// bytes are those encoding/json produced when the collection was built
// from maps (object keys in sorted order, floats by jsonenc.AppendFloat),
// except that an empty region is "features":[] rather than null, which
// RFC 7946 §3.3 requires. On error dst is returned unextended.
func (r *Region) AppendGeoJSON(dst []byte) ([]byte, error) {
	if r.sys == nil {
		return dst, fmt.Errorf("streach: region is not attached to a system")
	}
	// One growth, sized from the shapes (a feature is ~150 bytes around
	// ~40 per coordinate pair), instead of doubling the way up.
	size := 64
	for _, id := range r.SegmentIDs {
		size += 160 + 42*len(r.sys.net.Segment(roadnet.SegmentID(id)).Shape)
	}
	b := append(slices.Grow(dst, size), `{"type":"FeatureCollection","features":[`...)
	// A float that JSON cannot hold is the only error, and it sticks:
	// the features after it append no number.
	var err error
	float := func(f float64) {
		if err == nil {
			b, err = jsonenc.AppendFloat(b, f, 64)
		}
	}
	for i, id := range r.SegmentIDs {
		seg := r.sys.net.Segment(roadnet.SegmentID(id))
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"type":"Feature","geometry":{"coordinates":[`...)
		for j, p := range seg.Shape {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			float(p.Lng) // GeoJSON is lng,lat
			b = append(b, ',')
			float(p.Lat)
			b = append(b, ']')
		}
		// Every RoadClass name is plain ASCII that JSON leaves unescaped
		// (TestRoadClassNamesNeedNoEscaping).
		b = append(b, `],"type":"LineString"},"properties":{"class":"`...)
		b = append(b, seg.Class.String()...)
		b = append(b, `","length":`...)
		float(seg.Length)
		b = append(b, `,"segment":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, `}}`...)
	}
	if err != nil {
		return dst, fmt.Errorf("streach: marshal geojson: %w", err)
	}
	return append(b, `]}`...), nil
}

// Bounds returns the region's bounding box as (minLat, minLng, maxLat,
// maxLng); ok is false for an empty region.
func (r *Region) Bounds() (minLat, minLng, maxLat, maxLng float64, ok bool) {
	if r.sys == nil || len(r.SegmentIDs) == 0 {
		return 0, 0, 0, 0, false
	}
	var box = r.sys.net.Segment(roadnet.SegmentID(r.SegmentIDs[0])).Box
	for _, id := range r.SegmentIDs[1:] {
		box.ExpandMBR(r.sys.net.Segment(roadnet.SegmentID(id)).Box)
	}
	return box.MinLat, box.MinLng, box.MaxLat, box.MaxLng, true
}

// Contains reports whether the region includes the segment ID.
func (r *Region) Contains(id int32) bool {
	lo, hi := 0, len(r.SegmentIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.SegmentIDs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(r.SegmentIDs) && r.SegmentIDs[lo] == id
}
