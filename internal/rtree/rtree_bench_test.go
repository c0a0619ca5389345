package rtree

import (
	"math/rand"
	"testing"

	"streach/internal/geo"
)

func benchItems(n int) []Item {
	rng := rand.New(rand.NewSource(21))
	items := make([]Item, n)
	for i := range items {
		p := geo.Offset(origin, rng.Float64()*20000, rng.Float64()*20000)
		q := geo.Offset(p, rng.Float64()*300, rng.Float64()*300)
		items[i] = Item{ID: int64(i), Box: geo.NewMBR(p, q)}
	}
	return items
}

func BenchmarkBulkLoad(b *testing.B) {
	items := benchItems(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(items)
	}
}

func BenchmarkNearestWithin(b *testing.B) {
	tr := BulkLoad(benchItems(10000))
	rng := rand.New(rand.NewSource(22))
	points := make([]geo.Point, 256)
	for i := range points {
		points[i] = geo.Offset(origin, rng.Float64()*20000, rng.Float64()*20000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NearestWithin(points[i%len(points)], 400, 0)
	}
}

func BenchmarkNearest(b *testing.B) {
	tr := BulkLoad(benchItems(10000))
	rng := rand.New(rand.NewSource(23))
	points := make([]geo.Point, 256)
	for i := range points {
		points[i] = geo.Offset(origin, rng.Float64()*20000, rng.Float64()*20000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Nearest(points[i%len(points)], 8)
	}
}
