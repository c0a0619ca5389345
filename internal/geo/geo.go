// Package geo provides the geographic primitives used throughout the
// spatio-temporal reachability system: WGS-84 points, distance functions,
// minimum bounding rectangles (MBRs), and polyline utilities.
//
// All distances are in metres. Latitude and longitude are in decimal
// degrees. For the city-scale extents this system works with (tens of
// kilometres), the equirectangular approximation is accurate to well under
// 0.1% and is used on hot paths; Haversine is available where callers want
// the spherical formula.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by the distance functions.
const EarthRadiusMeters = 6_371_000.0

// Point is a WGS-84 coordinate.
type Point struct {
	Lat float64 // latitude in decimal degrees
	Lng float64 // longitude in decimal degrees
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lng)
}

// Valid reports whether the point lies in the legal WGS-84 ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lng >= -180 && p.Lng <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lng)
}

// Haversine returns the great-circle distance between a and b in metres.
func Haversine(a, b Point) float64 {
	la1 := a.Lat * math.Pi / 180
	la2 := b.Lat * math.Pi / 180
	dla := (b.Lat - a.Lat) * math.Pi / 180
	dlo := (b.Lng - a.Lng) * math.Pi / 180
	s1 := math.Sin(dla / 2)
	s2 := math.Sin(dlo / 2)
	h := s1*s1 + math.Cos(la1)*math.Cos(la2)*s2*s2
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Distance returns the equirectangular-approximation distance between a and
// b in metres. It is within 0.1% of Haversine at city scale and roughly 3x
// cheaper, so it is the default on query hot paths.
func Distance(a, b Point) float64 {
	latMid := (a.Lat + b.Lat) / 2 * math.Pi / 180
	dx := (b.Lng - a.Lng) * math.Pi / 180 * math.Cos(latMid)
	dy := (b.Lat - a.Lat) * math.Pi / 180
	return EarthRadiusMeters * math.Sqrt(dx*dx+dy*dy)
}

// Offset returns the point reached from p by moving dEast metres east and
// dNorth metres north (small-displacement approximation).
func Offset(p Point, dEast, dNorth float64) Point {
	dLat := dNorth / EarthRadiusMeters * 180 / math.Pi
	dLng := dEast / (EarthRadiusMeters * math.Cos(p.Lat*math.Pi/180)) * 180 / math.Pi
	return Point{Lat: p.Lat + dLat, Lng: p.Lng + dLng}
}

// Lerp returns the point a fraction t of the way from a to b, with t
// clamped to [0, 1].
func Lerp(a, b Point, t float64) Point {
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return Point{
		Lat: a.Lat + (b.Lat-a.Lat)*t,
		Lng: a.Lng + (b.Lng-a.Lng)*t,
	}
}

// MBR is a minimum bounding rectangle in latitude/longitude space.
// The zero value is an "empty" rectangle that contains nothing; extend it
// with Expand or ExpandMBR.
type MBR struct {
	MinLat, MinLng float64
	MaxLat, MaxLng float64
	nonEmpty       bool
}

// NewMBR returns the MBR spanning the two corner points in either order.
func NewMBR(a, b Point) MBR {
	return MBR{
		MinLat:   math.Min(a.Lat, b.Lat),
		MinLng:   math.Min(a.Lng, b.Lng),
		MaxLat:   math.Max(a.Lat, b.Lat),
		MaxLng:   math.Max(a.Lng, b.Lng),
		nonEmpty: true,
	}
}

// MBROf returns the MBR covering all pts. It returns an empty MBR when pts
// is empty.
func MBROf(pts []Point) MBR {
	var m MBR
	for _, p := range pts {
		m.Expand(p)
	}
	return m
}

// Empty reports whether the rectangle contains no points at all.
func (m MBR) Empty() bool { return !m.nonEmpty }

// Expand grows the rectangle to include p.
func (m *MBR) Expand(p Point) {
	if !m.nonEmpty {
		*m = NewMBR(p, p)
		return
	}
	m.MinLat = math.Min(m.MinLat, p.Lat)
	m.MinLng = math.Min(m.MinLng, p.Lng)
	m.MaxLat = math.Max(m.MaxLat, p.Lat)
	m.MaxLng = math.Max(m.MaxLng, p.Lng)
}

// ExpandMBR grows the rectangle to include all of o.
func (m *MBR) ExpandMBR(o MBR) {
	if o.Empty() {
		return
	}
	m.Expand(Point{Lat: o.MinLat, Lng: o.MinLng})
	m.Expand(Point{Lat: o.MaxLat, Lng: o.MaxLng})
}

// Contains reports whether p lies inside or on the boundary of m.
func (m MBR) Contains(p Point) bool {
	return m.nonEmpty &&
		p.Lat >= m.MinLat && p.Lat <= m.MaxLat &&
		p.Lng >= m.MinLng && p.Lng <= m.MaxLng
}

// Intersects reports whether the two rectangles share any point.
func (m MBR) Intersects(o MBR) bool {
	if m.Empty() || o.Empty() {
		return false
	}
	return m.MinLat <= o.MaxLat && o.MinLat <= m.MaxLat &&
		m.MinLng <= o.MaxLng && o.MinLng <= m.MaxLng
}

// ContainsMBR reports whether o lies entirely within m.
func (m MBR) ContainsMBR(o MBR) bool {
	if m.Empty() || o.Empty() {
		return false
	}
	return o.MinLat >= m.MinLat && o.MaxLat <= m.MaxLat &&
		o.MinLng >= m.MinLng && o.MaxLng <= m.MaxLng
}

// Center returns the midpoint of the rectangle.
func (m MBR) Center() Point {
	return Point{Lat: (m.MinLat + m.MaxLat) / 2, Lng: (m.MinLng + m.MaxLng) / 2}
}

// Buffer returns m grown by approximately meters on every side.
func (m MBR) Buffer(meters float64) MBR {
	if m.Empty() {
		return m
	}
	dLat := meters / EarthRadiusMeters * 180 / math.Pi
	cosLat := math.Cos(m.Center().Lat * math.Pi / 180)
	if cosLat < 0.01 {
		cosLat = 0.01
	}
	dLng := meters / (EarthRadiusMeters * cosLat) * 180 / math.Pi
	return MBR{
		MinLat:   m.MinLat - dLat,
		MinLng:   m.MinLng - dLng,
		MaxLat:   m.MaxLat + dLat,
		MaxLng:   m.MaxLng + dLng,
		nonEmpty: true,
	}
}

// DistanceTo returns the distance in metres from p to the nearest point of
// the rectangle (zero when p is inside).
func (m MBR) DistanceTo(p Point) float64 {
	if m.Empty() {
		return math.Inf(1)
	}
	nearest := Point{
		Lat: clamp(p.Lat, m.MinLat, m.MaxLat),
		Lng: clamp(p.Lng, m.MinLng, m.MaxLng),
	}
	return Distance(p, nearest)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
