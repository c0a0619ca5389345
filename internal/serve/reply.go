package serve

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"streach"
	"streach/internal/jsonenc"
)

// The reply path of an answered /v1/reach (DESIGN.md §8): the region is
// append-encoded into a pooled buffer and leaves in one Write with its
// Content-Length, instead of being reflected over by encoding/json and
// streamed through the chunked writer.

// replyBufs recycles reply buffers across requests. A buffer is never
// referenced after its Write returns (net/http copies or sends it), so
// it goes straight back.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply keeps one huge answer from pinning its buffer in the
// pool for ever: anything that grew past it is left to the collector.
const maxPooledReply = 1 << 20

// writeRegion encodes the region in the negotiated format and sends it.
// Nothing is written before the encoding succeeded, so an unencodable
// region (a NaN, a detached region) still gets a typed error status.
func (s *Server) writeRegion(w http.ResponseWriter, r *http.Request, region *streach.Region, geoJSON bool) {
	bp := replyBufs.Get().(*[]byte)
	var (
		buf         []byte
		err         error
		contentType = "application/json"
	)
	if geoJSON {
		contentType = "application/geo+json"
		buf, err = region.AppendGeoJSON((*bp)[:0])
	} else {
		buf, err = appendRegionJSON((*bp)[:0], region)
	}
	if err != nil {
		replyBufs.Put(bp)
		s.httpError(w, r, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	_, _ = w.Write(buf) // a failed write is a client that went away
	if cap(buf) <= maxPooledReply {
		*bp = buf
		replyBufs.Put(bp)
	}
}

// appendRegionJSON appends the default JSON shape of a reachability
// answer: the bytes json.NewEncoder(w).Encode wrote for the nested maps
// this reply used to be built from — keys in sorted order, nil slices as
// null, floats by jsonenc.AppendFloat (probabilities at float32 width),
// a trailing newline. A partial-results answer additionally carries
// "degraded": true with the missing shards and the coverage fraction.
func appendRegionJSON(dst []byte, region *streach.Region) ([]byte, error) {
	b := append(dst, '{')
	// A float that JSON cannot hold is the only error, and it sticks:
	// nothing after it appends a number.
	var err error
	float := func(f float64, bitSize int) {
		if err == nil {
			b, err = jsonenc.AppendFloat(b, f, bitSize)
		}
	}
	d := region.Degraded
	if d != nil {
		b = append(b, `"coverage":`...)
		float(d.Coverage, 64)
		b = append(b, `,"degraded":true,`...)
	}
	m := region.Metrics
	b = append(b, `"metrics":{"bound_ms":`...)
	float(millis(m.Bound), 64)
	b = append(b, `,"elapsed_ms":`...)
	float(millis(m.Elapsed), 64)
	b = append(b, `,"evaluated":`...)
	b = strconv.AppendInt(b, int64(m.Evaluated), 10)
	b = append(b, `,"max_region":`...)
	b = strconv.AppendInt(b, int64(m.MaxRegion), 10)
	b = append(b, `,"min_region":`...)
	b = strconv.AppendInt(b, int64(m.MinRegion), 10)
	b = append(b, `,"page_hits":`...)
	b = strconv.AppendInt(b, m.PageHits, 10)
	b = append(b, `,"page_reads":`...)
	b = strconv.AppendInt(b, m.PageReads, 10)
	b = append(b, `,"road_segments":`...)
	b = strconv.AppendInt(b, int64(m.RoadSegments), 10)
	b = append(b, `,"verify_ms":`...)
	float(millis(m.Verify), 64)
	b = append(b, '}')
	if d != nil {
		b = appendInts(append(b, `,"missing_shards":`...), d.MissingShards)
	}
	b = append(b, `,"probabilities":`...)
	if region.Probabilities == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range region.Probabilities {
			if i > 0 {
				b = append(b, ',')
			}
			float(float64(p), 32)
		}
		b = append(b, ']')
	}
	b = append(b, `,"road_km":`...)
	float(region.RoadKm, 64)
	b = appendInts(append(b, `,"segments":`...), region.SegmentIDs)
	if err != nil {
		return dst, err
	}
	return append(b, "}\n"...), nil
}

// appendInts appends a JSON array of integers; a nil slice is null, as
// encoding/json has it.
func appendInts[T int | int32](b []byte, s []T) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// millis is a duration as fractional milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
