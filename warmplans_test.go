package streach

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestShapeRecorderTop(t *testing.T) {
	r := newShapeRecorder()
	shape := func(start time.Duration) planShape {
		return planShape{Kind: KindReach, Start: start, Duration: 10 * time.Minute,
			Locations: []Location{{Lat: 22.5, Lng: 114}}}
	}
	// "b" recorded three times, "a" twice, "c" once: top must order by
	// frequency.
	for _, k := range []string{"a", "b", "c", "b", "a", "b"} {
		r.record(shape(time.Duration(k[0])*time.Hour), k)
	}
	top := r.top(2)
	if len(top) != 2 {
		t.Fatalf("top(2) returned %d shapes", len(top))
	}
	if top[0].Start != time.Duration('b')*time.Hour || top[1].Start != time.Duration('a')*time.Hour {
		t.Fatalf("top order wrong: %v, %v", top[0].Start, top[1].Start)
	}
	// Shapes over the location cap or with no locations are not recorded.
	r2 := newShapeRecorder()
	r2.record(planShape{Kind: KindReach}, "empty")
	r2.record(planShape{Kind: KindMulti, Locations: make([]Location, planShapeMaxLocs+1)}, "huge")
	if got, _ := r2.snapshot(); len(got) != 0 {
		t.Fatalf("uncacheable shapes recorded: %d", len(got))
	}
	// The ring stays bounded and keeps the newest entries.
	r3 := newShapeRecorder()
	for i := 0; i < planShapeRingCap+50; i++ {
		r3.record(shape(time.Duration(i)*time.Second), "k")
	}
	shapes, _ := r3.snapshot()
	if len(shapes) != planShapeRingCap {
		t.Fatalf("ring length %d, want %d", len(shapes), planShapeRingCap)
	}
	if shapes[len(shapes)-1].Start != time.Duration(planShapeRingCap+49)*time.Second {
		t.Fatalf("ring lost the newest entry: %v", shapes[len(shapes)-1].Start)
	}
}

func TestPlanShapesCodecRoundTrip(t *testing.T) {
	shapes := []planShape{
		{Kind: KindReach, Algorithm: AlgoBounded, OptionBits: 3, Start: 8 * time.Hour,
			Duration: 10 * time.Minute, Locations: []Location{{Lat: 22.51, Lng: 114.02}}},
		{Kind: KindMulti, Start: 17 * time.Hour, Duration: 45 * time.Minute,
			Locations: []Location{{Lat: 22.5, Lng: 114}, {Lat: 22.52, Lng: 114.03}}},
		{Kind: KindReverse, Start: 0, Duration: time.Minute,
			Locations: []Location{{Lat: -1.5, Lng: 100.25}}},
	}
	got, err := decodePlanShapes(bytes.NewReader(planShapesFile(t, shapes)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(shapes) {
		t.Fatalf("decoded %d shapes, want %d", len(got), len(shapes))
	}
	for i := range shapes {
		a, b := shapes[i], got[i]
		if a.Kind != b.Kind || a.Algorithm != b.Algorithm || a.OptionBits != b.OptionBits ||
			a.Start != b.Start || a.Duration != b.Duration || len(a.Locations) != len(b.Locations) {
			t.Fatalf("shape %d mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Locations {
			if a.Locations[j] != b.Locations[j] {
				t.Fatalf("shape %d location %d mismatch", i, j)
			}
		}
	}

	// One option-bit codec: every ablation combination of every
	// kind/algorithm pairing a plan is stored under is recorded in the
	// documented bit order (VerifyAll 1, EarlyStop 2, NoVisitedSet 4,
	// NoOverlapFilter 8 — the planshapes.bin byte) and, through
	// planshapes.bin and shapeQuery, rebuilds the live request's shape key
	// byte for byte. VerifyWorkers is cost-only and must not matter.
	pairs := map[Kind][]Algorithm{
		KindReach:   {AlgoAuto, AlgoBounded, AlgoExhaustive},
		KindReverse: {AlgoAuto, AlgoBounded, AlgoExhaustive},
		KindMulti:   {AlgoAuto, AlgoBounded, AlgoSequential},
	}
	for kind, algs := range pairs {
		locs := []Location{{Lat: 22.51, Lng: 114.02}}
		if kind == KindMulti {
			locs = append(locs, Location{Lat: 22.53, Lng: 114.05})
		}
		req := Request{Kind: kind, Locations: locs, Start: 8 * time.Hour, Duration: 10 * time.Minute, Prob: 0.3}
		for _, alg := range algs {
			for bits := uint8(0); bits < 16; bits++ {
				qo := resolveOptions([]Option{
					WithAlgorithm(alg), WithVerifyWorkers(3),
					WithVerifyAll(bits&1 != 0), WithEarlyStop(bits&2 != 0),
					WithNoVisitedSet(bits&4 != 0), WithNoOverlapFilter(bits&8 != 0),
				})
				name := fmt.Sprintf("%v/%v/bits=%d", kind, alg, bits)
				s := &System{shapes: newShapeRecorder()}
				s.recordPlanShape(req, qo, shapeKey(req, qo))
				recorded, _ := s.shapes.snapshot()
				if len(recorded) != 1 || recorded[0].OptionBits != bits {
					t.Fatalf("%s: recorded %+v, want one shape with option bits %d", name, recorded, bits)
				}
				decoded, err := decodePlanShapes(bytes.NewReader(planShapesFile(t, recorded)))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				wreq, wqo := shapeQuery(decoded[0])
				if err := validateRequest(wreq, wqo); err != nil {
					t.Fatalf("%s: rebuilt shape is invalid: %v", name, err)
				}
				if got, want := shapeKey(wreq, wqo), shapeKey(req, qo); got != want {
					t.Fatalf("%s: rebuilt shape key %x, live %x", name, got, want)
				}
			}
		}
	}
}

// TestPlanShapesBitFlipFuzz is the robustness satellite: any single-bit
// flip in planshapes.bin must either decode to the identical ring (a
// CRC-32C miss on one flipped bit is impossible) or fail cleanly — and
// an OpenSystem over a corrupt file must drop the ring, never the open.
func TestPlanShapesBitFlipFuzz(t *testing.T) {
	shapes := []planShape{
		{Kind: KindReach, Algorithm: AlgoBounded, Start: 8 * time.Hour,
			Duration: 10 * time.Minute, Locations: []Location{{Lat: 22.51, Lng: 114.02}}},
		{Kind: KindReverse, OptionBits: 1, Start: 17 * time.Hour,
			Duration: 45 * time.Minute, Locations: []Location{{Lat: 22.5, Lng: 114}}},
	}
	buf := planShapesFile(t, shapes)
	rng := rand.New(rand.NewSource(42))
	flips := len(buf) * 8
	if flips > 2000 {
		flips = 2000
	}
	for i := 0; i < flips; i++ {
		bit := rng.Intn(len(buf) * 8)
		mut := append([]byte(nil), buf...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := decodePlanShapes(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at %d decoded cleanly", bit)
		}
	}
	// Truncations must fail too, not panic.
	for _, cut := range []int{0, 1, 4, 7, 8, len(buf) / 2, len(buf) - 1} {
		if _, err := decodePlanShapes(bytes.NewReader(buf[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
}

// planShapesFile is the planshapes.bin of shapes.
func planShapesFile(t testing.TB, shapes []planShape) []byte {
	var b bytes.Buffer
	if err := encodePlanShapes(&b, shapes); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzDecodePlanShapes: no records, framed with a valid checksum (the
// frame itself is FuzzFrame's), panic decodePlanShapes, and a ring it
// accepts holds only valid shapes and re-encodes byte for byte.
func FuzzDecodePlanShapes(f *testing.F) {
	f.Add(payloadOf(planShapesFile(f, []planShape{
		{Kind: KindReach, Algorithm: AlgoBounded, Start: 8 * time.Hour,
			Duration: 10 * time.Minute, Locations: []Location{{Lat: 22.51, Lng: 114.02}}},
		{Kind: KindMulti, OptionBits: 5, Start: 17 * time.Hour, Duration: 45 * time.Minute,
			Locations: []Location{{Lat: 22.5, Lng: 114}, {Lat: 22.52, Lng: 114.03}}},
	})))
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		file := framed(planShapesMagic, planShapesVersion, payload)
		shapes, err := decodePlanShapes(bytes.NewReader(file))
		if err != nil {
			return
		}
		for i, sh := range shapes {
			if err := validatePlanShape(sh); err != nil || len(sh.Locations) == 0 || len(sh.Locations) > planShapeMaxLocs {
				t.Fatalf("shape %d accepted: %+v (%v)", i, sh, err)
			}
		}
		if again := planShapesFile(t, shapes); !bytes.Equal(again, file) {
			t.Fatalf("an accepted ring re-encodes differently (%d bytes in, %d out)", len(file), len(again))
		}
	})
}

// TestOpenSystemCorruptPlanShapes: a flipped bit in the persisted file
// must not fail the reopen — the ring is dropped and warming starts
// empty.
func TestOpenSystemCorruptPlanShapes(t *testing.T) {
	sys := variant(t, vcfg{})
	loc := smallSystem(t).BusiestLocation(9 * time.Hour)
	if _, err := sys.Do(context.Background(), ReachRequest(loc, 9*time.Hour, 10*time.Minute, 0.2)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, filePlanShapes)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, derr := decodePlanShapes(bytes.NewReader(raw)); derr != nil || len(got) == 0 {
		t.Fatalf("saved ring unreadable or empty (%v, %d shapes)", derr, len(got))
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenSystem(dir, DefaultIndexConfig())
	if err != nil {
		t.Fatalf("open failed on corrupt plan shapes: %v", err)
	}
	defer reopened.Close()
	if got, _ := reopened.shapes.snapshot(); len(got) != 0 {
		t.Fatalf("corrupt ring partially restored: %d shapes", len(got))
	}
	// An oversize file is corruption too.
	if err := os.WriteFile(path, make([]byte, 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened2, err := OpenSystem(dir, DefaultIndexConfig())
	if err != nil {
		t.Fatalf("open failed on oversize plan shapes: %v", err)
	}
	reopened2.Close()
}

// warmPlanShapes answers the valid requests of the matrix around 9:00
// on sys, so its shape recorder holds one shape per request kind (the
// first threshold of each misses, the others share its plan), and
// returns the requests and the number of shapes.
func warmPlanShapes(t *testing.T, sys *System) ([]oracleReq, int) {
	reqs := valid(requestMatrix(sys, 9*time.Hour).full)
	for _, r := range serial(sys)(reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	return reqs, len(byKind(reqs))
}

// TestWarmPlansEffectiveness: a warmed shape answers its next query
// from the cache — a hit without a preceding organic miss — exactly as
// the offline build does, and the warm pass is visible in
// SharingStats.PlansWarmed only.
func TestWarmPlansEffectiveness(t *testing.T) {
	sys := variant(t, vcfg{})
	reqs, shapes := warmPlanShapes(t, sys)
	n := int64(shapes)
	if miss := sys.SharingStats().PlanCacheMisses; miss != n {
		t.Fatalf("setup: %d misses, want %d", miss, n)
	}
	// Simulate the post-epoch-swap cold cache.
	sys.plans.clear()
	warmed, err := sys.warmPlans(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if int64(warmed) != n {
		t.Fatalf("warmPlans built %d plans, want %d", warmed, n)
	}
	st := sys.SharingStats()
	if st.PlansWarmed != n {
		t.Fatalf("PlansWarmed = %d, want %d", st.PlansWarmed, n)
	}
	checkOracle(t, reference(t), serial(sys), reqs)
	after := sys.SharingStats()
	if after.PlanCacheHits != st.PlanCacheHits+int64(len(reqs)) || after.PlanCacheMisses != st.PlanCacheMisses {
		t.Fatalf("warmed shapes not served from cache: hits %d->%d misses %d->%d",
			st.PlanCacheHits, after.PlanCacheHits, st.PlanCacheMisses, after.PlanCacheMisses)
	}
	// Warming again is a no-op: the shapes are already cached.
	if warmed, err = sys.warmPlans(context.Background(), 8); err != nil || warmed != 0 {
		t.Fatalf("re-warm built %d plans (%v), want 0", warmed, err)
	}
	checkOracle(t, reference(t), serial(sys), requestMatrix(sys, 9*time.Hour).invalid)
}

// TestWarmPlansPersistedAcrossReopen: the recorded shapes ride Save and
// OpenSystem, so a reopened system warms the shapes its predecessor
// served, and answers them from the cache as the offline build does.
func TestWarmPlansPersistedAcrossReopen(t *testing.T) {
	sys := variant(t, vcfg{})
	reqs, shapes := warmPlanShapes(t, sys)
	dir := t.TempDir()
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	reopened := variant(t, vcfg{dir: dir})
	warmed, err := reopened.warmPlans(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if warmed != shapes {
		t.Fatalf("reopened system warmed %d plans, want %d", warmed, shapes)
	}
	checkOracle(t, reference(t), serial(reopened), reqs)
	st := reopened.SharingStats()
	if st.PlanCacheHits != int64(len(reqs)) || st.PlanCacheMisses != 0 {
		t.Fatalf("reopened warm plans not hit: hits=%d misses=%d", st.PlanCacheHits, st.PlanCacheMisses)
	}
}

// TestEnableWarmPlanning: the background trigger builds plans that
// answer as the offline build does, and is re-armed by compaction epoch
// swaps; Close waits it out.
func TestEnableWarmPlanning(t *testing.T) {
	sys := variant(t, vcfg{})
	reqs, _ := warmPlanShapes(t, sys)
	sys.plans.clear()
	sys.EnableWarmPlanning(8)
	deadline := time.Now().Add(5 * time.Second)
	for sys.SharingStats().PlansWarmed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background warm pass never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sys.warmWG.Wait()
	before := sys.SharingStats()
	checkOracle(t, reference(t), serial(sys), reqs)
	if after := sys.SharingStats(); after.PlanCacheHits != before.PlanCacheHits+int64(len(reqs)) {
		t.Fatalf("background-warmed shapes missed the cache: %d hits for %d requests",
			after.PlanCacheHits-before.PlanCacheHits, len(reqs))
	}
}
