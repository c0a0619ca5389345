package streach

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"streach/internal/geo"
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
// RFC 7946 §3.3 requires. A segment ID outside the network is an error.
// On error dst is returned unextended.
func (r *Region) AppendGeoJSON(dst []byte) ([]byte, error) {
	if r.sys == nil {
		return dst, fmt.Errorf("streach: region is not attached to a system")
	}
	t := r.sys.featureTable()
	nseg := len(t.off) - 1
	size := len(geoJSONHead) + max(len(r.SegmentIDs)-1, 0) + len(geoJSONTail)
	for _, id := range r.SegmentIDs {
		if id < 0 || int(id) >= nseg {
			return dst, fmt.Errorf("streach: region segment %d is outside the network's %d segments", id, nseg)
		}
		size += int(t.off[id+1] - t.off[id])
	}
	b := append(slices.Grow(dst, size), geoJSONHead...)
	for i, id := range r.SegmentIDs {
		if i > 0 {
			b = append(b, ',')
		}
		if span := t.buf[t.off[id]:t.off[id+1]]; len(span) > 0 {
			b = append(b, span...)
			continue
		}
		// Not in the table: encode it here, which names the float JSON
		// cannot hold if that is why.
		var err error
		if b, err = appendFeature(b, r.sys.net, id); err != nil {
			return dst, fmt.Errorf("streach: marshal geojson: %w", err)
		}
	}
	return append(b, geoJSONTail...), nil
}

const (
	geoJSONHead = `{"type":"FeatureCollection","features":[`
	geoJSONTail = `]}`
)

// geoFeatures is the GeoJSON Feature of every segment of the network,
// encoded once, when the system first renders a region. It is a derived
// table of the network, not a cache: a feature is a pure function of one
// segment's shape, class, length and ID, nothing in a System's life
// changes its network, and the table has no key but the segment ID, no
// eviction and no invalidation. On the benchmark world (5 438 segments)
// it holds about 1.2 MB.
type geoFeatures struct {
	once sync.Once
	// buf holds the features back to back in segment ID order, exactly
	// sized; segment i's is buf[off[i]:off[i+1]]. A segment whose feature
	// cannot be encoded, or would take buf past 4 GiB, has an empty span
	// and is encoded at render instead.
	buf []byte
	off []uint32
}

// featureTable returns the system's feature table, building it on the
// first call; concurrent first calls wait for the one build.
func (s *System) featureTable() *geoFeatures {
	t := &s.features
	t.once.Do(func() {
		n := s.net.NumSegments()
		off := make([]uint32, n+1)
		var buf []byte
		for id := range n {
			if b, err := appendFeature(buf, s.net, int32(id)); err == nil && uint64(len(b)) <= math.MaxUint32 {
				buf = b
			}
			off[id+1] = uint32(len(buf))
		}
		t.buf, t.off = bytes.Clone(buf), off
	})
	return t
}

// appendFeature appends segment id's GeoJSON Feature to dst. A float
// that JSON cannot hold is the only error; dst is then returned
// unextended.
func appendFeature(dst []byte, net *roadnet.Network, id int32) ([]byte, error) {
	seg := net.Segment(roadnet.SegmentID(id))
	b := append(dst, `{"type":"Feature","geometry":{"coordinates":[`...)
	var err error
	for j, p := range seg.Shape {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		if b, err = jsonenc.AppendFloat(b, p.Lng, 64); err != nil { // GeoJSON is lng,lat
			return dst, err
		}
		b = append(b, ',')
		if b, err = jsonenc.AppendFloat(b, p.Lat, 64); err != nil {
			return dst, err
		}
		b = append(b, ']')
	}
	// Every RoadClass name is plain ASCII that JSON leaves unescaped
	// (TestRoadClassNamesNeedNoEscaping).
	b = append(b, `],"type":"LineString"},"properties":{"class":"`...)
	b = append(b, seg.Class.String()...)
	b = append(b, `","length":`...)
	if b, err = jsonenc.AppendFloat(b, seg.Length, 64); err != nil {
		return dst, err
	}
	b = append(b, `,"segment":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	return append(b, `}}`...), nil
}

// Bounds returns the region's bounding box as (minLat, minLng, maxLat,
// maxLng); ok is false for an empty region and for one holding a segment
// ID outside the network.
func (r *Region) Bounds() (minLat, minLng, maxLat, maxLng float64, ok bool) {
	if r.sys == nil || len(r.SegmentIDs) == 0 {
		return 0, 0, 0, 0, false
	}
	var box geo.MBR
	for _, id := range r.SegmentIDs {
		if id < 0 || int(id) >= r.sys.net.NumSegments() {
			return 0, 0, 0, 0, false
		}
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
