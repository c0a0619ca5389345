package roadnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"streach/internal/geo"
)

func TestNetworkCodecRoundTrip(t *testing.T) {
	orig, err := Generate(GenerateConfig{
		Origin: o, Rows: 7, Cols: 7, SpacingMeters: 850, LocalFraction: 0.4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSegments() != orig.NumSegments() {
		t.Fatalf("segments %d, want %d", got.NumSegments(), orig.NumSegments())
	}
	if got.NumVertices() != orig.NumVertices() {
		t.Fatalf("vertices %d, want %d", got.NumVertices(), orig.NumVertices())
	}
	for i := 0; i < orig.NumSegments(); i++ {
		a, b := orig.Segment(SegmentID(i)), got.Segment(SegmentID(i))
		if a.Class != b.Class || a.OneWay != b.OneWay {
			t.Fatalf("segment %d attributes differ", i)
		}
		if math.Abs(a.Length-b.Length) > 1e-6 {
			t.Fatalf("segment %d length %v != %v", i, a.Length, b.Length)
		}
		if a.Reverse != b.Reverse {
			t.Fatalf("segment %d twin %d != %d", i, a.Reverse, b.Reverse)
		}
		if len(a.Shape) != len(b.Shape) {
			t.Fatalf("segment %d shape length differs", i)
		}
		for j := range a.Shape {
			if a.Shape[j] != b.Shape[j] {
				t.Fatalf("segment %d point %d differs", i, j)
			}
		}
	}
	// Adjacency must be identical (same build order, same snapping).
	for i := 0; i < orig.NumSegments(); i++ {
		ao, bo := orig.Outgoing(SegmentID(i)), got.Outgoing(SegmentID(i))
		if len(ao) != len(bo) {
			t.Fatalf("segment %d outgoing count differs", i)
		}
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("segment %d outgoing[%d] differs", i, j)
			}
		}
	}
}

func TestNetworkCodecResegmented(t *testing.T) {
	orig, err := Generate(GenerateConfig{
		Origin: o, Rows: 5, Cols: 5, SpacingMeters: 1200, LocalFraction: 0.3, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resegment(orig, 400)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSegments() != res.NumSegments() {
		t.Fatalf("resegmented round trip: %d segments, want %d", got.NumSegments(), res.NumSegments())
	}
	if math.Abs(got.TotalLength()-res.TotalLength()) > 1 {
		t.Fatal("total length changed through codec")
	}
}

func TestNetworkCodecRejectsGarbage(t *testing.T) {
	if _, err := ReadNetwork(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic should error")
	}
	if _, err := ReadNetwork(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should error")
	}
	// Truncated stream.
	orig, err := Generate(GenerateConfig{Origin: o, Rows: 3, Cols: 3, SpacingMeters: 700, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, orig); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadNetwork(bytes.NewReader(buf.Bytes()[:buf.Len()/3])); err == nil {
		t.Fatal("truncated input should error")
	}
}

// TestNetworkCodecRejectsNonFinite: network.bin is unframed, so a
// corrupt coordinate reaches AddRoad, which must refuse it and name the
// road and the point.
func TestNetworkCodecRejectsNonFinite(t *testing.T) {
	orig, err := Generate(GenerateConfig{Origin: o, Rows: 3, Cols: 3, SpacingMeters: 700, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, orig); err != nil {
		t.Fatal(err)
	}
	// Header (10 bytes), road 0's class, oneway and npoints (4), then
	// point 0's lat and lng: make point 1's lng (offset 14+16+8) +Inf.
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[38:], math.Float64bits(math.Inf(1)))
	_, err = ReadNetwork(bytes.NewReader(raw))
	if want := "road 0: roadnet: road shape point 1"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadNetwork of an infinite coordinate: err %v, want one containing %q", err, want)
	}
}

func TestNetworkCodecOneWayRoads(t *testing.T) {
	b := NewBuilder()
	if _, err := b.AddRoad(geo.Polyline{o, geo.Offset(o, 400, 0)}, Secondary, true); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddRoad(geo.Polyline{geo.Offset(o, 400, 0), o}, Secondary, true); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddRoad(geo.Polyline{o, geo.Offset(o, 0, 400)}, Primary, false); err != nil {
		t.Fatal(err)
	}
	n := b.Build()
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, n); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSegments() != 4 { // 2 one-way + 1 two-way pair
		t.Fatalf("segments = %d, want 4", got.NumSegments())
	}
	oneWays := 0
	for i := 0; i < got.NumSegments(); i++ {
		if got.Segment(SegmentID(i)).Reverse == NoSegment {
			oneWays++
		}
	}
	if oneWays != 2 {
		t.Fatalf("one-way segments = %d, want 2", oneWays)
	}
}
