package stindex

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/storage"
	"streach/internal/traj"
)

// refBuild is Build before the counting sort: every tuple of the dataset
// in one slice, one global sort, then one blob per (slot, segment) run,
// appended in sorted order. It is the oracle Build is held to, handle
// for handle and page byte for page byte. It trusts its input.
func refBuild(net *roadnet.Network, ds *traj.Dataset, cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	numSlots := 86400 / cfg.SlotSeconds
	pool, err := storage.NewBufferPool(cfg.Store, cfg.PoolPages)
	if err != nil {
		return nil, err
	}
	handles := make(handleTable, numSlots)
	idx := &Index{
		net:      net,
		slotSec:  cfg.SlotSeconds,
		numSlots: numSlots,
		days:     ds.Days,
		baseDate: ds.BaseDate,
		pool:     pool,
		blob:     storage.NewBlobFile(pool),
		live:     newLiveState(handles),
		cache:    newTLCache(cfg.TimeListCache),
	}
	var tuples []uint64
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		for _, v := range mt.Visits {
			s0 := int(v.EnterMs) / 1000 / cfg.SlotSeconds
			s1 := int(v.ExitMs) / 1000 / cfg.SlotSeconds
			for s := s0; s <= s1; s++ {
				if s < 0 || s >= numSlots {
					continue // visit ran past midnight
				}
				tuples = append(tuples, packTuple(s, int(v.Segment), int(mt.Day), int(mt.Taxi)))
			}
		}
	}
	slices.Sort(tuples)
	for i := 0; i < len(tuples); {
		if i > 0 && tuples[i] == tuples[i-1] {
			i++ // duplicate tuple
			continue
		}
		slot, seg, _, _ := unpackTuple(tuples[i])
		j := i
		for j < len(tuples) {
			s2, g2, _, _ := unpackTuple(tuples[j])
			if s2 != slot || g2 != seg {
				break
			}
			j++
		}
		h, err := idx.blob.Append(encodePackedRun(tuples[i:j]))
		if err != nil {
			return nil, err
		}
		handles.set(slot, seg, net.NumSegments(), h)
		i = j
	}
	if err := pool.Invalidate(); err != nil {
		return nil, err
	}
	pool.ResetStats()
	return idx, nil
}

// unpackTuple inverts packTuple.
func unpackTuple(t uint64) (slot, seg, day, taxi int) {
	return int(t >> 46), int(t >> 24 & (1<<22 - 1)), int(t >> 15 & (1<<9 - 1)), int(t & (1<<15 - 1))
}

// randomDataset draws trajectories over the network's segments with the
// edges Build must get right: visits that repeat within a trajectory and
// across trajectories of one (taxi, day), visits that span several
// slots, start before midnight's slot 0 or run past midnight, the
// largest taxi and the last day, and trajectories with no visits. Visits
// cluster in a few slots, so most slots are empty.
func randomDataset(rng *rand.Rand, numSegments, days, trajs int, slotSec int) *traj.Dataset {
	ds := &traj.Dataset{BaseDate: time.Date(2014, 11, 1, 0, 0, 0, 0, time.UTC), Days: days}
	hot := []int{0, 1 + rng.Intn(3), 86400/slotSec - 1} // slot indices visits cluster in
	for i := 0; i < trajs; i++ {
		mt := traj.MatchedTrajectory{Taxi: traj.TaxiID(rng.Intn(40)), Day: traj.Day(rng.Intn(days))}
		switch rng.Intn(8) {
		case 0:
			mt.Taxi = maxTaxis - 1
		case 1:
			mt.Day = traj.Day(days - 1)
		}
		for v, nv := 0, rng.Intn(12); v < nv; v++ {
			if v > 0 && rng.Intn(5) == 0 {
				mt.Visits = append(mt.Visits, mt.Visits[rng.Intn(v)]) // duplicate
				continue
			}
			enter := hot[rng.Intn(len(hot))]*slotSec*1000 + rng.Intn(slotSec*1000)
			dur := rng.Intn(slotSec * 1000 / 4)
			switch rng.Intn(6) {
			case 0:
				dur = rng.Intn(3*slotSec*1000) + slotSec*1000 // several slots
			case 1:
				enter -= slotSec * 1000 // may start before midnight
			}
			mt.Visits = append(mt.Visits, traj.Visit{
				Segment: roadnet.SegmentID(rng.Intn(numSegments)),
				EnterMs: int32(enter),
				ExitMs:  int32(enter + dur), // may run past midnight
				Speed:   float32(1 + rng.Intn(20)),
			})
		}
		ds.Matched = append(ds.Matched, mt)
	}
	if len(ds.Matched) > 1 {
		dup := ds.Matched[0] // a second trajectory of one (taxi, day)
		dup.Visits = slices.Clone(dup.Visits)
		ds.Matched = append(ds.Matched, dup)
	}
	return ds
}

// checkSameBuild compares two builds over MemStores: the same handle
// table and the same bytes on every page.
func checkSameBuild(t *testing.T, got, want *Index, gotMem, wantMem *storage.MemStore) {
	t.Helper()
	gh, wh := got.liveHandles(), want.liveHandles()
	if len(gh) != len(wh) {
		t.Fatalf("%d handle rows, want %d", len(gh), len(wh))
	}
	for s := range wh {
		if (gh[s] == nil) != (wh[s] == nil) || !slices.Equal(gh[s], wh[s]) {
			for seg := 0; seg < want.net.NumSegments(); seg++ {
				if g, w := gh.at(s, seg), wh.at(s, seg); g != w {
					t.Fatalf("slot %d segment %d: handle %+v, want %+v", s, seg, g, w)
				}
			}
			t.Fatalf("slot %d: row allocated %v, want %v", s, gh[s] != nil, wh[s] != nil)
		}
	}
	if got.blob.Tail() != want.blob.Tail() {
		t.Fatalf("blob tail %d, want %d", got.blob.Tail(), want.blob.Tail())
	}
	if gotMem.NumPages() != wantMem.NumPages() {
		t.Fatalf("%d pages, want %d", gotMem.NumPages(), wantMem.NumPages())
	}
	gp, wp := make([]byte, storage.PageSize), make([]byte, storage.PageSize)
	for id := storage.PageID(0); int64(id) < wantMem.NumPages(); id++ {
		if err := gotMem.ReadPage(id, gp); err != nil {
			t.Fatal(err)
		}
		if err := wantMem.ReadPage(id, wp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gp, wp) {
			t.Fatalf("page %d differs", id)
		}
	}
}

// buildBoth runs Build and refBuild over ds and compares them.
func buildBoth(t *testing.T, n *roadnet.Network, ds *traj.Dataset, slotSec int) {
	t.Helper()
	gotMem, wantMem := storage.NewMemStore(), storage.NewMemStore()
	got, err := Build(n, ds, Config{SlotSeconds: slotSec, PoolPages: 8, Store: gotMem})
	if err != nil {
		t.Fatal(err)
	}
	want, err := refBuild(n, ds, Config{SlotSeconds: slotSec, PoolPages: 8, Store: wantMem})
	if err != nil {
		t.Fatal(err)
	}
	checkSameBuild(t, got, want, gotMem, wantMem)
}

// TestBuildMatchesReference holds the counting-sort build to the global
// sort it replaced, at one and at four workers: seeded random datasets
// at three slot widths, the simulated test fleet, one visit, and no
// visits at all.
func TestBuildMatchesReference(t *testing.T) {
	n := testNetwork(t)
	sim := testDataset(t, n)
	base := time.Date(2014, 11, 1, 0, 0, 0, 0, time.UTC)
	oneVisit := &traj.Dataset{BaseDate: base, Days: 3, Matched: []traj.MatchedTrajectory{
		{Taxi: maxTaxis - 1, Day: 2, Visits: []traj.Visit{{Segment: roadnet.SegmentID(n.NumSegments() - 1), EnterMs: 36_000_000, ExitMs: 36_100_000}}},
	}}
	noVisits := &traj.Dataset{BaseDate: base, Days: 2, Matched: []traj.MatchedTrajectory{{Taxi: 3, Day: 1}}}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for seed := int64(0); seed < 12; seed++ {
				slotSec := []int{300, 3600, 21600}[seed%3]
				rng := rand.New(rand.NewSource(seed))
				buildBoth(t, n, randomDataset(rng, n.NumSegments(), 1+rng.Intn(maxDays-1), 1+rng.Intn(300), slotSec), slotSec)
			}
			buildBoth(t, n, sim, 300)
			buildBoth(t, n, oneVisit, 300)
			buildBoth(t, n, noVisits, 300)
			buildBoth(t, n, &traj.Dataset{BaseDate: base, Days: 1}, 300)
		})
	}
}

// TestBuildRejectsOutOfRange: a taxi, day or segment outside its range
// is an error naming the trajectory, not a panic or a list written under
// another key; so are a NaN speed and an exit before the entry
// (Dataset.CheckTrajectory, shared with the Con-Index build).
func TestBuildRejectsOutOfRange(t *testing.T) {
	n := testNetwork(t)
	seg := roadnet.SegmentID(n.NumSegments())
	visit := func(s roadnet.SegmentID) []traj.Visit {
		return []traj.Visit{{Segment: 0, EnterMs: 1000, ExitMs: 2000}, {Segment: s, EnterMs: 2000, ExitMs: 400_000}}
	}
	for _, tc := range []struct {
		name string
		mt   traj.MatchedTrajectory
		want string
	}{
		{"segment past the network", traj.MatchedTrajectory{Taxi: 1, Day: 0, Visits: visit(seg)}, fmt.Sprintf("trajectory 1 visit 1: segment %d outside [0, %d)", seg, seg)},
		{"negative segment", traj.MatchedTrajectory{Taxi: 1, Day: 0, Visits: visit(-1)}, "trajectory 1 visit 1: segment -1 outside"},
		{"taxi too large", traj.MatchedTrajectory{Taxi: maxTaxis, Day: 0, Visits: visit(1)}, "trajectory 1: taxi 32768 outside [0, 32768)"},
		{"negative taxi", traj.MatchedTrajectory{Taxi: -1, Day: 0, Visits: visit(1)}, "trajectory 1: taxi -1 outside"},
		{"day past the dataset", traj.MatchedTrajectory{Taxi: 1, Day: 3, Visits: visit(1)}, "trajectory 1: day 3 outside [0, 3)"},
		{"negative day", traj.MatchedTrajectory{Taxi: 1, Day: -1, Visits: visit(1)}, "trajectory 1: day -1 outside"},
		{"NaN speed", traj.MatchedTrajectory{Taxi: 1, Day: 0, Visits: []traj.Visit{{Segment: 1, EnterMs: 1000, ExitMs: 2000, Speed: float32(math.NaN())}}}, "trajectory 1 visit 0: speed NaN"},
		{"exit before entry", traj.MatchedTrajectory{Taxi: 1, Day: 0, Visits: []traj.Visit{{Segment: 1, EnterMs: 1000, ExitMs: -5}}}, "trajectory 1 visit 0: exit -5 ms before entry 1000 ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := &traj.Dataset{Days: 3, Matched: []traj.MatchedTrajectory{{Taxi: 2, Day: 2, Visits: visit(2)}, tc.mt}}
			_, err := Build(n, ds, Config{SlotSeconds: 300})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestBuildWriteErrorStopsWorkers: a page store that fails mid-build
// fails Build with the store's error, and no encoding worker outlives it.
func TestBuildWriteErrorStopsWorkers(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	for _, after := range []int{0, 1, 3} {
		fs := storage.NewFaultStore(storage.NewMemStore(), storage.Scenario{
			Rules: []storage.FaultRule{{Op: storage.OpAlloc, Mode: storage.ModeError, After: after}},
		})
		if _, err := Build(n, ds, Config{SlotSeconds: 300, PoolPages: 2, Store: fs}); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("after %d pages: Build error %v, want the injected one", after, err)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkBuild times Build over a simulated six-hour shift of 120 taxis
// on a generated 10x10 city and reports the time per packed tuple (one
// per slot a visit overlaps).
func BenchmarkBuild(b *testing.B) {
	n, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin:        geo.Point{Lat: 22.5, Lng: 114.0},
		Rows:          10,
		Cols:          10,
		SpacingMeters: 600,
		LocalFraction: 0.4,
		Seed:          3,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := traj.Simulate(n, traj.SimConfig{
		Taxis: 120, Days: 10, Profile: traj.DefaultSpeedProfile(), Seed: 5,
		ActiveStartSec: 6 * 3600, ActiveEndSec: 12 * 3600,
	})
	if err != nil {
		b.Fatal(err)
	}
	const slotSec = 300
	tuples := 0
	for _, mt := range ds.Matched {
		for _, v := range mt.Visits {
			lo, hi := slotSpan(v, slotSec*1000, 86400/slotSec)
			tuples += max(hi-lo+1, 0)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := Build(n, ds, Config{SlotSeconds: slotSec})
		if err != nil {
			b.Fatal(err)
		}
		x.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(tuples)), "ns/tuple")
}
