package main

import (
	"context"
	"encoding/json"
	"fmt"

	"streach"
)

// checkEvery is the sampling stride of the output check: every
// checkEvery-th answer of a timed phase is kept and compared afterwards.
const checkEvery = 20

// answer is the part of a reply the output check compares: the region,
// segment for segment and probability for probability.
type answer struct {
	Segs  []int32
	Probs []float32 // nil when the reply format carries none (GeoJSON)
}

func answerOf(r *streach.Region) *answer {
	return &answer{
		Segs:  append([]int32{}, r.SegmentIDs...),
		Probs: append([]float32{}, r.Probabilities...),
	}
}

// differs describes the first difference between got and want, or
// returns "" when they agree. A nil Probs on either side skips the
// probability comparison.
func (got *answer) differs(want *answer) string {
	if len(got.Segs) != len(want.Segs) {
		return fmt.Sprintf("%d segments, want %d", len(got.Segs), len(want.Segs))
	}
	for i := range got.Segs {
		if got.Segs[i] != want.Segs[i] {
			return fmt.Sprintf("segment[%d] = %d, want %d", i, got.Segs[i], want.Segs[i])
		}
	}
	if got.Probs == nil || want.Probs == nil {
		return ""
	}
	if len(got.Probs) != len(want.Probs) {
		return fmt.Sprintf("%d probabilities, want %d", len(got.Probs), len(want.Probs))
	}
	for i := range got.Probs {
		if got.Probs[i] != want.Probs[i] {
			return fmt.Sprintf("probability[%d] = %v, want %v", i, got.Probs[i], want.Probs[i])
		}
	}
	return ""
}

// reference re-asks req of the reference view of sys: no plan sharing or
// plan cache, serial verification - the path with the least machinery
// between the request and the indexes.
func reference(sys *streach.System, req streach.Request) (*answer, error) {
	r, err := sys.Do(context.Background(), req, streach.WithBatchSharing(false), streach.WithVerifyWorkers(1))
	if err != nil {
		return nil, err
	}
	return answerOf(r), nil
}

// checkKept compares every kept answer (indexed like qs, nil = not
// sampled) with the reference view and returns how many were wrong,
// logging the first few.
func checkKept(sys *streach.System, qs []query, kept []*answer, logf func(string, ...any)) (wrong int, err error) {
	for i, got := range kept {
		if got == nil {
			continue
		}
		want, err := reference(sys, qs[i].Req)
		if err != nil {
			return wrong, fmt.Errorf("reference answer %d: %w", i, err)
		}
		if d := got.differs(want); d != "" {
			if wrong < 5 {
				logf("WRONG answer %d (%v): %s", i, qs[i].Req.Kind, d)
			}
			wrong++
		}
	}
	return wrong, nil
}

// decodeBody extracts the answer from an HTTP reply body: the default
// JSON shape carries segments and probabilities, the GeoJSON rendering
// one feature per segment.
func decodeBody(body []byte, geojson bool) (*answer, error) {
	if geojson {
		var fc struct {
			Features []struct {
				Properties struct {
					Segment int32 `json:"segment"`
				} `json:"properties"`
			} `json:"features"`
		}
		if err := json.Unmarshal(body, &fc); err != nil {
			return nil, fmt.Errorf("decode geojson: %w", err)
		}
		a := &answer{Segs: make([]int32, len(fc.Features))}
		for i, f := range fc.Features {
			a.Segs[i] = f.Properties.Segment
		}
		return a, nil
	}
	var resp struct {
		Segments      []int32   `json:"segments"`
		Probabilities []float32 `json:"probabilities"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode json: %w", err)
	}
	if resp.Probabilities == nil {
		resp.Probabilities = []float32{}
	}
	return &answer{Segs: resp.Segments, Probs: resp.Probabilities}, nil
}
