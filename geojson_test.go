package streach

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"streach/internal/geo"
	"streach/internal/race"
	"streach/internal/roadnet"
)

// geoJSONOracle is Region.GeoJSON as it was before AppendGeoJSON: the
// collection built from maps and marshalled by encoding/json. Kept
// verbatim as the reference the append encoder must match byte for byte.
func geoJSONOracle(r *Region) (string, error) {
	type feature struct {
		Type       string                 `json:"type"`
		Geometry   map[string]interface{} `json:"geometry"`
		Properties map[string]interface{} `json:"properties"`
	}
	fc := struct {
		Type     string    `json:"type"`
		Features []feature `json:"features"`
	}{Type: "FeatureCollection"}

	if r.sys == nil {
		return "", fmt.Errorf("streach: region is not attached to a system")
	}
	for _, id := range r.SegmentIDs {
		seg := r.sys.net.Segment(roadnet.SegmentID(id))
		coords := make([][2]float64, len(seg.Shape))
		for i, p := range seg.Shape {
			coords[i] = [2]float64{p.Lng, p.Lat} // GeoJSON is lng,lat
		}
		fc.Features = append(fc.Features, feature{
			Type: "Feature",
			Geometry: map[string]interface{}{
				"type":        "LineString",
				"coordinates": coords,
			},
			Properties: map[string]interface{}{
				"segment": id,
				"class":   seg.Class.String(),
				"length":  seg.Length,
			},
		})
	}
	out, err := json.Marshal(fc)
	if err != nil {
		return "", fmt.Errorf("streach: marshal geojson: %w", err)
	}
	return string(out), nil
}

func checkGeoJSON(t *testing.T, name string, r *Region) {
	t.Helper()
	want, err := geoJSONOracle(r)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	// Into a non-empty buffer: the prefix must survive untouched.
	got, err := r.AppendGeoJSON([]byte("prefix"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if string(got) != "prefix"+want {
		t.Fatalf("%s: AppendGeoJSON differs from the encoding/json oracle\n got %.300s\nwant %.300s", name, got[len("prefix"):], want)
	}
	s, err := r.GeoJSON()
	if err != nil || s != want {
		t.Fatalf("%s: GeoJSON() differs from the oracle (err %v)", name, err)
	}
}

// TestAppendGeoJSONMatchesOracle walks every segment of the test network
// through both encoders — alone and all together — plus real answers.
func TestAppendGeoJSONMatchesOracle(t *testing.T) {
	s := smallSystem(t)
	n := s.Network().NumSegments()
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
		checkGeoJSON(t, fmt.Sprintf("segment %d", i), &Region{SegmentIDs: all[i : i+1], sys: s})
	}
	checkGeoJSON(t, "every segment", &Region{SegmentIDs: all, sys: s})

	for _, prob := range []float64{0.05, 0.2, 0.8} {
		q := testQuery(s)
		q.Prob = prob
		region, err := s.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		checkGeoJSON(t, fmt.Sprintf("reach prob=%v (%d segments)", prob, len(region.SegmentIDs)), region)
		// The string form costs its buffer, grown once, and the string.
		if a := testing.AllocsPerRun(20, func() { _, _ = region.GeoJSON() }); a > 2 && !race.Enabled {
			t.Fatalf("GeoJSON() of %d segments allocates %.0f times, want 2", len(region.SegmentIDs), a)
		}
	}
}

// TestAppendGeoJSONEmptyRegion pins the one intended byte difference: a
// region without segments has "features":[] where encoding/json wrote
// null for the nil slice (RFC 7946 §3.3: features is an array).
func TestAppendGeoJSONEmptyRegion(t *testing.T) {
	s := smallSystem(t)
	for _, r := range []*Region{{sys: s}, {SegmentIDs: []int32{}, sys: s}} {
		got, err := r.GeoJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"type":"FeatureCollection","features":[]}`; got != want {
			t.Fatalf("empty region: got %s, want %s", got, want)
		}
		oracle, _ := geoJSONOracle(r)
		if strings.Replace(oracle, "null", "[]", 1) != got {
			t.Fatalf("empty region differs from the oracle by more than null → []: %s vs %s", got, oracle)
		}
	}
	if _, err := (&Region{SegmentIDs: []int32{0}}).AppendGeoJSON(nil); err == nil {
		t.Fatal("a detached region must not encode")
	}
}

// TestAppendGeoJSONRejectsOutOfRangeIDs: SegmentIDs is exported, so a
// caller can put an ID outside the network into it. Rendering names the
// ID and leaves dst as it was; Bounds reports no box.
func TestAppendGeoJSONRejectsOutOfRangeIDs(t *testing.T) {
	s := smallSystem(t)
	n := int32(s.Network().NumSegments())
	for _, bad := range []int32{n, -1, math.MaxInt32, math.MinInt32} {
		r := &Region{SegmentIDs: []int32{0, bad}, sys: s}
		want := fmt.Sprintf("segment %d is outside the network's %d segments", bad, n)
		got, err := r.AppendGeoJSON([]byte("prefix"))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ID %d: AppendGeoJSON err %v, want one containing %q", bad, err, want)
		}
		if string(got) != "prefix" {
			t.Fatalf("ID %d: AppendGeoJSON extended dst to %.80q on error", bad, got)
		}
		if _, err := r.GeoJSON(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ID %d: GeoJSON err %v, want one containing %q", bad, err, want)
		}
		if _, _, _, _, ok := r.Bounds(); ok {
			t.Fatalf("ID %d: Bounds reported a box", bad)
		}
	}
}

// TestGeoJSONFirstUseRace: on a fresh system, 8 goroutines render their
// first regions at once, so they race to build the feature table; every
// rendering must still be the oracle's bytes.
func TestGeoJSONFirstUseRace(t *testing.T) {
	const workers = 8
	s := variant(t, vcfg{})
	n := s.Network().NumSegments()
	regions := make([]*Region, workers)
	want := make([]string, workers)
	for g := range regions {
		regions[g] = &Region{sys: s}
		for id := g; id < n; id += workers {
			regions[g].SegmentIDs = append(regions[g].SegmentIDs, int32(id))
		}
		var err error
		if want[g], err = geoJSONOracle(regions[g]); err != nil {
			t.Fatal(err)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range regions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got, err := regions[g].GeoJSON(); err != nil || got != want[g] {
				t.Errorf("worker %d: first GeoJSON differs from the oracle (err %v)", g, err)
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestAppendGeoJSONShardedMatchesUnsharded: the same queries through the
// 4-shard cluster render the same bytes (diffRegion compares them), and
// those bytes are what encoding/json writes.
func TestAppendGeoJSONShardedMatchesUnsharded(t *testing.T) {
	sharded := variant(t, vcfg{planCache: -1, shards: 4, shared: true})
	reqs := requestMatrix(sharded, 11*time.Hour).smoke
	checkOracle(t, reference(t), serial(sharded), reqs)
	got, err := sharded.Do(context.Background(), reqs[0].req)
	if err != nil {
		t.Fatal(err)
	}
	checkGeoJSON(t, "sharded", got)
}

// TestRoadClassNamesNeedNoEscaping: AppendGeoJSON copies the class name
// between quotes, so no name any RoadClass value can print may contain
// a byte encoding/json would escape (quote, backslash, control, <, >, &,
// or anything non-ASCII).
func TestRoadClassNamesNeedNoEscaping(t *testing.T) {
	for c := 0; c < 256; c++ {
		name := roadnet.RoadClass(c).String()
		want, err := json.Marshal(name)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != `"`+name+`"` {
			t.Fatalf("RoadClass(%d) prints %q, which JSON escapes to %s", c, name, want)
		}
	}
}

func BenchmarkGeoJSON(b *testing.B) {
	s := smallSystem(b)
	region, err := s.Do(context.Background(), testQuery(s))
	if err != nil {
		b.Fatal(err)
	}
	// The system's first render builds its feature table; time the rest.
	if _, err := region.AppendGeoJSON(nil); err != nil {
		b.Fatal(err)
	}
	// ns/segment compares renderings of regions of different sizes.
	perSegment := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(region.SegmentIDs)), "ns/segment")
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			if buf, err = region.AppendGeoJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
		perSegment(b)
	})
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := region.GeoJSON(); err != nil {
				b.Fatal(err)
			}
		}
		perSegment(b)
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := geoJSONOracle(region); err != nil {
				b.Fatal(err)
			}
		}
		perSegment(b)
	})
}

// FuzzReadNetwork: ReadNetwork's bytes reach AddRoad as they are in a
// version 1 network.bin, which is unframed, and in a version 2 one whose
// checksums hold. A decode fails, or every point and length it yields is
// finite, every vertex lies on the globe (|lat| <= 90, |lng| <= 180) and
// every segment's feature encodes to valid JSON. With frame set the input
// is a version 2 payload, framed with valid checksums so that mutation
// reaches the records; otherwise it is the file itself.
func FuzzReadNetwork(f *testing.F) {
	net, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin: geo.Point{Lat: 22.5, Lng: 114}, Rows: 3, Cols: 3, SpacingMeters: 700, Seed: 11,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := roadnet.WriteNetwork(&buf, net); err != nil {
		f.Fatal(err)
	}
	payload := payloadOf(buf.Bytes())
	f.Add(payload, true)
	// Road 0's second point with a NaN latitude (road count 4 bytes, road
	// header 4, point 0 16).
	nan := bytes.Clone(payload)
	binary.LittleEndian.PutUint64(nan[24:], math.Float64bits(math.NaN()))
	f.Add(nan, true)
	// The same two as version 1 files.
	v1 := []byte("STRN\x01\x00")
	f.Add(append(bytes.Clone(v1), payload...), false)
	f.Add(append(bytes.Clone(v1), nan...), false)
	f.Fuzz(func(t *testing.T, data []byte, frame bool) {
		if frame {
			data = framed("STRN", 2, data)
		}
		net, err := roadnet.ReadNetwork(bytes.NewReader(data))
		if err != nil {
			return
		}
		for v := 0; v < net.NumVertices(); v++ {
			if p := net.Vertex(int32(v)); !(math.Abs(p.Lat) <= 90 && math.Abs(p.Lng) <= 180) {
				t.Fatalf("vertex %d is %v, off the globe", v, p)
			}
		}
		for i := 0; i < net.NumSegments(); i++ {
			seg := net.Segment(roadnet.SegmentID(i))
			for j, p := range seg.Shape {
				if math.IsNaN(p.Lat) || math.IsInf(p.Lat, 0) || math.IsNaN(p.Lng) || math.IsInf(p.Lng, 0) {
					t.Fatalf("segment %d point %d is %v", i, j, p)
				}
			}
			if math.IsNaN(seg.Length) || math.IsInf(seg.Length, 0) {
				t.Fatalf("segment %d has length %v", i, seg.Length)
			}
			feature, err := appendFeature(nil, net, int32(i))
			if err != nil || !json.Valid(feature) {
				t.Fatalf("segment %d: feature %.200q does not encode (err %v)", i, feature, err)
			}
		}
	})
}
