package roadnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"streach/internal/geo"
	"streach/internal/storage"
	"streach/internal/xerr"
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
	for _, file := range [][]byte{buf.Bytes(), v1Of(buf.Bytes())} {
		if _, err := ReadNetwork(bytes.NewReader(file[:len(file)/3])); xerr.KindOf(err) != xerr.KindCorrupt {
			t.Fatalf("truncated input: err %v, want a corruption", err)
		}
	}
}

// v1Of is the version 1 file of the same network as a version 2 file:
// the frame's payload, unframed after the header.
func v1Of(frame []byte) []byte {
	out := binary.LittleEndian.AppendUint16([]byte(netMagic), v1Version)
	for off := 6; ; {
		n := int(binary.LittleEndian.Uint32(frame[off:]))
		if n == 0 {
			return out
		}
		out = append(out, frame[off+4:off+4+n]...)
		off += 8 + n
	}
}

// framedV2 is payload in a version 2 frame with valid checksums.
func framedV2(payload []byte) []byte {
	var b bytes.Buffer
	fw := storage.NewChecksumWriter(&b, netMagic, netVersion)
	fw.Write(payload)
	fw.Finish()
	return b.Bytes()
}

// TestNetworkCodecRejectsNonFinite: a version 1 file is unframed, so a
// corrupt coordinate reaches AddRoad, which must refuse it and name the
// road and the point; so must a version 2 file whose checksums were
// written over the corrupt coordinate.
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
	raw := v1Of(buf.Bytes())
	binary.LittleEndian.PutUint64(raw[38:], math.Float64bits(math.Inf(1)))
	for name, file := range map[string][]byte{"v1": raw, "v2": framedV2(raw[6:])} {
		_, err = ReadNetwork(bytes.NewReader(file))
		if want := "road 0: roadnet: road shape point 1"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: ReadNetwork of an infinite coordinate: err %v, want one containing %q", name, err, want)
		}
		if xerr.KindOf(err) != xerr.KindCorrupt {
			t.Fatalf("%s: %v is not marked corrupt", name, err)
		}
	}
}

// TestNetworkCodecReadsV1: a version 1 file, as earlier builds wrote it,
// reads as the same network as version 2 and re-encodes to version 2;
// any flipped bit of a version 2 file fails the read as corruption.
func TestNetworkCodecReadsV1(t *testing.T) {
	orig, err := Generate(GenerateConfig{Origin: o, Rows: 3, Cols: 4, SpacingMeters: 700, LocalFraction: 0.3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := WriteNetwork(&v2, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetwork(bytes.NewReader(v1Of(v2.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteNetwork(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), v2.Bytes()) {
		t.Fatalf("a version 1 file re-encodes to %d bytes, not the %d of the network it was written from", again.Len(), v2.Len())
	}
	for bit := 0; bit < v2.Len()*8; bit += 7 {
		file := bytes.Clone(v2.Bytes())
		file[bit/8] ^= 1 << (bit % 8)
		if _, err := ReadNetwork(bytes.NewReader(file)); xerr.KindOf(err) != xerr.KindCorrupt {
			t.Fatalf("bit %d flipped: err %v, want a corruption", bit, err)
		}
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
