package streach

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"streach/internal/storage"
)

// Warm-plan pipeline: the plan store only pays off after the first
// query of each shape has eaten a cold bounding + verification pass,
// and every compaction epoch swap invalidates the whole store again
// (the data version in the key moves). This file closes the gap: the
// system records the shape — kind, algorithm, result-affecting option
// bits, window, locations; never results — of every plan-store miss in a
// small ring, persists the ring to dir/planshapes.bin alongside the
// indexes, and re-plans the top-N most frequent shapes in the
// background after an open or a compaction, so steady traffic lands on
// warm plans instead of paying the cold-start tail.

const (
	// planShapeRingCap bounds the recorded shape ring; with the
	// location cap below the persisted file stays well under the read
	// cap even when full.
	planShapeRingCap = 256
	// planShapeMaxLocs skips recording multi-queries beyond this many
	// locations — rare shapes whose encoded size isn't worth the ring
	// space.
	planShapeMaxLocs = 8

	planShapesMagic   = "SPSH"
	planShapesVersion = 2
)

// planShape is one recorded query shape: everything shapeKey encodes
// (the probability threshold is the axis plans are shared across), so
// re-planning a shape reproduces the exact store key live traffic will
// ask for. OptionBits is optionBits of the engine options.
type planShape struct {
	Kind       Kind
	Algorithm  Algorithm
	OptionBits uint8
	Start      time.Duration
	Duration   time.Duration
	Locations  []Location
}

// shapeRecorder is the fixed-capacity ring of recent plan-store-miss
// shapes, deduplicated at read time by frequency. Safe for concurrent
// record/snapshot.
type shapeRecorder struct {
	mu     sync.Mutex
	shapes []planShape // ring storage, len == cap once full
	keys   []string    // parallel shapeKeys
	next   int         // next write position
	full   bool
}

func newShapeRecorder() *shapeRecorder { return &shapeRecorder{} }

func (r *shapeRecorder) record(shape planShape, key string) {
	if len(shape.Locations) == 0 || len(shape.Locations) > planShapeMaxLocs {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.shapes) < planShapeRingCap {
		r.shapes = append(r.shapes, shape)
		r.keys = append(r.keys, key)
		r.next = len(r.shapes) % planShapeRingCap
		r.full = len(r.shapes) == planShapeRingCap
		return
	}
	r.shapes[r.next] = shape
	r.keys[r.next] = key
	r.next = (r.next + 1) % planShapeRingCap
}

// snapshot returns the ring in chronological order (oldest first).
func (r *shapeRecorder) snapshot() ([]planShape, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.shapes)
	shapes := make([]planShape, 0, n)
	keys := make([]string, 0, n)
	start := 0
	if r.full {
		start = r.next
	}
	for i := 0; i < n; i++ {
		j := (start + i) % n
		shapes = append(shapes, r.shapes[j])
		keys = append(keys, r.keys[j])
	}
	return shapes, keys
}

// top returns up to n distinct shapes ordered by ring frequency
// (duplicate-heavy traffic floats to the front), breaking ties toward
// the most recently recorded.
func (r *shapeRecorder) top(n int) []planShape {
	shapes, keys := r.snapshot()
	count := map[string]int{}
	lastSeen := map[string]int{}
	firstIdx := map[string]int{}
	for i, k := range keys {
		count[k]++
		lastSeen[k] = i
		if _, ok := firstIdx[k]; !ok {
			firstIdx[k] = i
		}
	}
	distinct := make([]string, 0, len(count))
	for k := range count {
		distinct = append(distinct, k)
	}
	// Frequency desc, recency desc: insertion sort keeps this simple
	// for a ≤256-entry ring.
	for i := 1; i < len(distinct); i++ {
		for j := i; j > 0; j-- {
			a, b := distinct[j-1], distinct[j]
			if count[b] > count[a] || (count[b] == count[a] && lastSeen[b] > lastSeen[a]) {
				distinct[j-1], distinct[j] = b, a
			} else {
				break
			}
		}
	}
	if n > len(distinct) {
		n = len(distinct)
	}
	out := make([]planShape, 0, n)
	for _, k := range distinct[:n] {
		out = append(out, shapes[firstIdx[k]])
	}
	return out
}

// load replaces the ring contents (used by the planshapes.bin loader).
func (r *shapeRecorder) load(shapes []planShape, keys []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(shapes) > planShapeRingCap {
		shapes = shapes[len(shapes)-planShapeRingCap:]
		keys = keys[len(keys)-planShapeRingCap:]
	}
	r.shapes = append([]planShape(nil), shapes...)
	r.keys = append([]string(nil), keys...)
	r.full = len(r.shapes) == planShapeRingCap
	r.next = len(r.shapes) % planShapeRingCap
}

// encodePlanShapes writes the ring to w as a storage frame (magic
// "SPSH", version 2) whose payload is, little endian: count u16, then
// per shape kind u8 | algorithm u8 | option bits u8 | start i64 |
// duration i64 | nloc u16 | nloc x (lat f64, lng f64). Shapes carry no
// query results — only the request parameters needed to rebuild a plan.
func encodePlanShapes(w io.Writer, shapes []planShape) error {
	fw := storage.NewChecksumWriter(w, planShapesMagic, planShapesVersion)
	fw.Uint16(uint16(len(shapes)))
	for _, sh := range shapes {
		fw.Uint8(uint8(sh.Kind))
		fw.Uint8(uint8(sh.Algorithm))
		fw.Uint8(sh.OptionBits)
		fw.Uint64(uint64(sh.Start))
		fw.Uint64(uint64(sh.Duration))
		fw.Uint16(uint16(len(sh.Locations)))
		for _, l := range sh.Locations {
			fw.Uint64(math.Float64bits(l.Lat))
			fw.Uint64(math.Float64bits(l.Lng))
		}
	}
	return fw.Finish()
}

// decodePlanShapes validates and decodes a planshapes.bin file. Every
// failure is an error — the caller drops the ring and logs, it never
// fails the open. The count and the location counts are bounded before
// anything is sized from them.
func decodePlanShapes(r io.Reader) ([]planShape, error) {
	fr, err := storage.NewChecksumReader(r, planShapesMagic, planShapesVersion)
	if err != nil {
		return nil, err
	}
	count := int(fr.Uint16())
	if count > planShapeRingCap {
		return nil, fmt.Errorf("shape count %d exceeds ring capacity %d", count, planShapeRingCap)
	}
	shapes := make([]planShape, 0, min(int64(count), fr.Remaining()/(3+8+8+2)))
	for i := 0; i < count; i++ {
		sh := planShape{
			Kind:       Kind(fr.Uint8()),
			Algorithm:  Algorithm(fr.Uint8()),
			OptionBits: fr.Uint8(),
			Start:      time.Duration(fr.Uint64()),
			Duration:   time.Duration(fr.Uint64()),
		}
		nloc := int(fr.Uint16())
		if err := fr.Err(); err != nil {
			return nil, fmt.Errorf("shape %d: %w", i, err)
		}
		if nloc == 0 || nloc > planShapeMaxLocs {
			return nil, fmt.Errorf("shape %d has %d locations (cap %d)", i, nloc, planShapeMaxLocs)
		}
		for j := 0; j < nloc; j++ {
			sh.Locations = append(sh.Locations, Location{
				Lat: math.Float64frombits(fr.Uint64()),
				Lng: math.Float64frombits(fr.Uint64()),
			})
		}
		if err := fr.Err(); err != nil {
			return nil, fmt.Errorf("shape %d: %w", i, err)
		}
		if err := validatePlanShape(sh); err != nil {
			return nil, fmt.Errorf("shape %d: %w", i, err)
		}
		shapes = append(shapes, sh)
	}
	if err := fr.Finish(); err != nil {
		return nil, err
	}
	return shapes, nil
}

// validatePlanShape rejects decoded shapes that are semantically
// invalid although their checksums hold: a hand-edited file, or a
// corruption the CRC (vanishingly unlikely) let through.
func validatePlanShape(sh planShape) error {
	switch sh.Kind {
	case KindReach, KindReverse, KindMulti:
	default:
		return fmt.Errorf("kind %d not warmable", int(sh.Kind))
	}
	if sh.Duration <= 0 || sh.Start < 0 || sh.Start >= 24*time.Hour {
		return fmt.Errorf("invalid window %v+%v", sh.Start, sh.Duration)
	}
	return nil
}

// recordPlanShape notes one plan-store miss's shape in the ring under
// key, its shapeKey (called from doPlan, which has already built the
// key).
func (s *System) recordPlanShape(req Request, qo queryOptions, key string) {
	shape := planShape{
		Kind:       req.Kind,
		Algorithm:  qo.algorithm,
		OptionBits: optionBits(qo.engine),
		Start:      req.Start,
		Duration:   req.Duration,
		Locations:  append([]Location(nil), req.Locations...),
	}
	s.shapes.record(shape, key)
}

// shapeQuery rebuilds the request and resolved options a recorded shape
// was planned under, so the rebuilt shapeKey is byte-identical to the
// one live traffic computes.
func shapeQuery(sh planShape) (Request, queryOptions) {
	req := Request{
		Kind:      sh.Kind,
		Locations: sh.Locations,
		Start:     sh.Start,
		Duration:  sh.Duration,
		Prob:      0.5, // plans are threshold-independent; any valid value
	}
	return req, queryOptions{algorithm: sh.Algorithm, engine: optionsOf(sh.OptionBits)}
}

// warmPlans re-plans up to topN of the most frequent recorded shapes
// and parks the plans in the plan store under the current data version,
// so the next matching query is a hit instead of a cold bounding +
// verification pass. Shapes already in the store are skipped;
// shapes that no longer plan (e.g. recorded against a different
// network) are dropped silently. Returns how many plans were built.
// Safe to call concurrently with live queries.
func (s *System) warmPlans(ctx context.Context, topN int) (int, error) {
	if topN <= 0 {
		return 0, nil
	}
	warmed := 0
	for _, sh := range s.shapes.top(topN) {
		if err := ctx.Err(); err != nil {
			return warmed, err
		}
		req, qo := shapeQuery(sh)
		if validateRequest(req, qo) != nil {
			continue
		}
		e, how, err := s.plans.acquire(ctx, s.planKey(req, qo), func(ctx context.Context) (queryPlan, error) {
			return s.newPlan(ctx, req, qo)
		})
		if err != nil {
			continue
		}
		if how == planMiss {
			e.mu.Unlock() // the builder's first answer, which warming does not ask for
			s.sharing.plansWarmed.Add(1)
			warmed++
		}
		s.plans.release(e)
	}
	return warmed, nil
}

// EnableWarmPlanning turns on background plan warming: the top topN
// recorded shapes are re-planned now and again after every compaction
// epoch swap (whose data-version bump invalidates all stored plans).
// topN <= 0 disables. The plan store is grown to hold at least topN
// plans — warming more shapes than the LRU can park would evict its
// own work. The background pass is skipped while one is already
// running and is cancelled by Close.
func (s *System) EnableWarmPlanning(topN int) {
	s.plans.grow(topN)
	s.warmN.Store(int32(topN))
	s.warmPlansAsync()
}

// warmPlansAsync kicks one background warm pass if warming is enabled
// and none is in flight.
func (s *System) warmPlansAsync() {
	n := int(s.warmN.Load())
	if n <= 0 || s.warmCtx == nil || !s.warmBusy.CompareAndSwap(false, true) {
		return
	}
	s.warmWG.Add(1)
	go func() {
		defer s.warmWG.Done()
		defer s.warmBusy.Store(false)
		_, _ = s.warmPlans(s.warmCtx, n)
	}()
}

// savePlanShapes persists the shape ring to dir/planshapes.bin
// (atomically; the file is a hint, but a torn write must never survive
// to poison a later load).
func (s *System) savePlanShapes(dir string) error {
	shapes, _ := s.shapes.snapshot()
	return writeFileAtomic(dir, filePlanShapes, func(w io.Writer) error { return encodePlanShapes(w, shapes) })
}

// loadPlanShapes restores the shape ring from dir/planshapes.bin. A
// missing file is a fresh system; anything unreadable — a bad frame,
// an old version, invalid shapes — drops the ring with an error for the
// caller to log. Never fails an open.
func (s *System) loadPlanShapes(dir string) error {
	f, err := os.Open(filepath.Join(dir, filePlanShapes))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	shapes, err := decodePlanShapes(f)
	if err != nil {
		return err
	}
	keys := make([]string, len(shapes))
	for i, sh := range shapes {
		keys[i] = shapeKey(shapeQuery(sh))
	}
	s.shapes.load(shapes, keys)
	return nil
}
