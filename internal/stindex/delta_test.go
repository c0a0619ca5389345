package stindex

import (
	"bytes"
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"testing"

	"streach/internal/roadnet"
	"streach/internal/storage"
	"streach/internal/traj"
)

// deltaObsAsVisits converts delta observations into one-visit matched
// trajectories sitting wholly inside their slot, so an offline Build
// over base ∪ extras expands them to exactly the same (slot, seg, day,
// taxi) tuples AppendDelta recorded.
func deltaObsAsVisits(obs []DeltaObs, slotSec int) []traj.MatchedTrajectory {
	out := make([]traj.MatchedTrajectory, 0, len(obs))
	for _, o := range obs {
		ms := int32(o.Slot*slotSec*1000 + 1000)
		out = append(out, traj.MatchedTrajectory{
			Taxi: o.Taxi, Day: o.Day,
			Visits: []traj.Visit{{Segment: o.Seg, EnterMs: ms, ExitMs: ms + 2000, Speed: 9}},
		})
	}
	return out
}

// setBits flattens a TimeListBits into sorted (day, taxi) pairs for
// semantic comparison (merged copies may carry longer zero-padded word
// slices than a freshly decoded blob).
func setBits(b *TimeListBits) [][2]int {
	if b == nil {
		return nil
	}
	var out [][2]int
	for i, d := range b.Days {
		for wi, w := range b.Bits[i] {
			for w != 0 {
				taxi := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				out = append(out, [2]int{int(d), taxi})
			}
		}
	}
	return out
}

func testDeltaObs(idx *Index) []DeltaObs {
	// Fresh taxi IDs above the simulated fleet, spread over segments,
	// slots, and days, with repeats to exercise set-union idempotence.
	var obs []DeltaObs
	n := idx.Network().NumSegments()
	for i := 0; i < 300; i++ {
		o := DeltaObs{
			Seg:  roadnet.SegmentID((i * 7) % n),
			Slot: (100 + i*3) % idx.NumSlots(),
			Day:  traj.Day(i % idx.Days()),
			Taxi: traj.TaxiID(100 + i%40),
		}
		obs = append(obs, o, o)
	}
	return obs
}

func TestDeltaMergeMatchesOfflineRebuild(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	live := buildIndex(t, n, ds)
	defer live.Close()

	obs := testDeltaObs(live)
	if err := live.AppendDelta(obs); err != nil {
		t.Fatal(err)
	}
	st := live.DeltaStats()
	if st.DirtyKeys == 0 || st.PendingObs == 0 {
		t.Fatalf("delta stats after append: %+v", st)
	}
	if st.DataVersion == 0 {
		t.Fatal("append did not bump the data version")
	}
	if st.Epoch != 0 {
		t.Fatalf("epoch moved without a compaction: %d", st.Epoch)
	}

	union := &traj.Dataset{
		BaseDate: ds.BaseDate, Days: ds.Days,
		Matched: append(append([]traj.MatchedTrajectory(nil), ds.Matched...),
			deltaObsAsVisits(obs, live.SlotSeconds())...),
	}
	offline := buildIndex(t, n, union)
	defer offline.Close()

	compare := func(stage string) {
		t.Helper()
		for seg := 0; seg < n.NumSegments(); seg++ {
			for slot := 0; slot < live.NumSlots(); slot++ {
				got, err := live.timeListBitsAt(roadnet.SegmentID(seg), slot)
				if err != nil {
					t.Fatal(err)
				}
				want, err := offline.timeListBitsAt(roadnet.SegmentID(seg), slot)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(setBits(got), setBits(want)) {
					t.Fatalf("%s: (seg=%d slot=%d) merged content differs from offline rebuild", stage, seg, slot)
				}
			}
		}
	}
	compare("base+delta")

	cs, err := live.CompactDeltasBudget(0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Keys != st.DirtyKeys || cs.Epoch != 1 {
		t.Fatalf("compaction stats: %+v (dirty keys were %d)", cs, st.DirtyKeys)
	}
	after := live.DeltaStats()
	if after.DirtyKeys != 0 || after.PendingObs != 0 {
		t.Fatalf("delta not drained by compaction: %+v", after)
	}
	compare("post-compaction")

	// The acceptance criterion is bit-identity of the persisted form:
	// every blob the compaction wrote must be byte-identical to the blob
	// an offline rebuild over the union writes for the same key.
	liveHandles, offHandles := flatHandles(live), flatHandles(offline)
	lr, or := live.blob.NewReader(), offline.blob.NewReader()
	for key := range liveHandles {
		lh, oh := liveHandles[key], offHandles[key]
		if lh.IsZero() != oh.IsZero() {
			t.Fatalf("key %d: handle presence differs (live zero=%v offline zero=%v)", key, lh.IsZero(), oh.IsZero())
		}
		if lh.IsZero() {
			continue
		}
		lb, err := lr.Read(lh)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := or.Read(oh)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lb, ob) {
			t.Fatalf("key %d: compacted blob differs from offline rebuild (%d vs %d bytes)", key, len(lb), len(ob))
		}
	}
}

func TestDeltaAppendValidation(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	idx := buildIndex(t, n, ds)
	defer idx.Close()

	bad := []DeltaObs{
		{Seg: roadnet.SegmentID(n.NumSegments()), Slot: 0, Day: 0, Taxi: 1},
		{Seg: 0, Slot: idx.NumSlots(), Day: 0, Taxi: 1},
		{Seg: 0, Slot: 0, Day: traj.Day(idx.Days()), Taxi: 1},
		{Seg: 0, Slot: 0, Day: 0, Taxi: 1 << 15},
	}
	for i, o := range bad {
		if err := idx.AppendDelta([]DeltaObs{o}); err == nil {
			t.Fatalf("bad obs %d accepted: %+v", i, o)
		}
	}
	// A rejected batch must leave no trace.
	if st := idx.DeltaStats(); st.DirtyKeys != 0 || st.DataVersion != 0 {
		t.Fatalf("rejected batches mutated the delta layer: %+v", st)
	}
}

// TestDeltaConcurrentAppendReadCompact races appenders, readers, and a
// compactor (run under -race). The final content must be the union of
// everything appended, regardless of how appends interleaved with
// compaction installs.
func TestDeltaConcurrentAppendReadCompact(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	live := buildIndex(t, n, ds)
	defer live.Close()

	const appenders = 4
	var appendWG, auxWG sync.WaitGroup
	all := make([][]DeltaObs, appenders)
	for a := 0; a < appenders; a++ {
		// Disjoint taxi ranges per appender keep the oracle trivial.
		var obs []DeltaObs
		for i := 0; i < 200; i++ {
			obs = append(obs, DeltaObs{
				Seg:  roadnet.SegmentID((a*31 + i*5) % n.NumSegments()),
				Slot: (50 + a + i*2) % live.NumSlots(),
				Day:  traj.Day(i % live.Days()),
				Taxi: traj.TaxiID(200 + a*50 + i%50),
			})
		}
		all[a] = obs
	}
	for a := 0; a < appenders; a++ {
		appendWG.Add(1)
		go func(obs []DeltaObs) {
			defer appendWG.Done()
			for i := 0; i < len(obs); i += 20 {
				if err := live.AppendDelta(obs[i : i+20]); err != nil {
					t.Error(err)
					return
				}
			}
		}(all[a])
	}
	stop := make(chan struct{})
	auxWG.Add(2)
	go func() { // reader
		defer auxWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			seg := roadnet.SegmentID(i % n.NumSegments())
			if _, err := live.timeListBitsAt(seg, (50+i)%live.NumSlots()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // compactor
		defer auxWG.Done()
		for i := 0; i < 5; i++ {
			if _, err := live.CompactDeltasBudget(0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	appendWG.Wait()
	close(stop)
	auxWG.Wait()

	// One final compaction folds whatever raced the earlier ones.
	if _, err := live.CompactDeltasBudget(0); err != nil {
		t.Fatal(err)
	}
	if st := live.DeltaStats(); st.DirtyKeys != 0 || st.PendingObs != 0 {
		t.Fatalf("delta not drained: %+v", st)
	}

	union := &traj.Dataset{BaseDate: ds.BaseDate, Days: ds.Days,
		Matched: append([]traj.MatchedTrajectory(nil), ds.Matched...)}
	for _, obs := range all {
		union.Matched = append(union.Matched, deltaObsAsVisits(obs, live.SlotSeconds())...)
	}
	offline := buildIndex(t, n, union)
	defer offline.Close()
	for seg := 0; seg < n.NumSegments(); seg++ {
		for slot := 0; slot < live.NumSlots(); slot++ {
			got, err := live.timeListBitsAt(roadnet.SegmentID(seg), slot)
			if err != nil {
				t.Fatal(err)
			}
			want, err := offline.timeListBitsAt(roadnet.SegmentID(seg), slot)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(setBits(got), setBits(want)) {
				t.Fatalf("(seg=%d slot=%d) racy appends lost or invented content", seg, slot)
			}
		}
	}
}

// TestDeltaEpochSwapKeepsReadersConsistent pins the retry loop in
// readMerged: a read never pairs a stale base with an already-cleared
// delta, so at every instant a (seg, slot) read returns either the
// pre-append, post-append, or post-compaction content — never a subset.
func TestDeltaEpochSwapKeepsReadersConsistent(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	live := buildIndex(t, n, ds)
	defer live.Close()

	seg, slot := roadnet.SegmentID(3), 110
	key := fmt.Sprintf("seg=%d slot=%d", seg, slot)
	base, err := live.timeListBitsAt(seg, slot)
	if err != nil {
		t.Fatal(err)
	}
	baseCount := len(setBits(base))
	obs := []DeltaObs{{Seg: seg, Slot: slot, Day: 1, Taxi: 300}}
	if err := live.AppendDelta(obs); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b, err := live.timeListBitsAt(seg, slot)
			if err != nil {
				t.Error(err)
				return
			}
			if got := len(setBits(b)); got != baseCount+1 {
				t.Errorf("%s: read %d observations mid-swap, want %d", key, got, baseCount+1)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if _, err := live.CompactDeltasBudget(0); err != nil {
			t.Fatal(err)
		}
		// Re-dirty the key so every iteration swaps with a pending delta.
		if err := live.AppendDelta([]DeltaObs{{Seg: seg, Slot: slot, Day: 1, Taxi: 300}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDeltaCleanKeyNeverReadsEmpty pins the dirty-bit protocol a
// lock-free read of a clean key relies on: a compaction clears a key's
// bit only after the table that folds it is installed, so a key that
// has had an observation never again reads as having no list. Each
// round dirties a few thousand keys with no base list, and while one
// compaction folds them all a reader sweeps them without the lock. The
// clear loop runs over every folded key, so clearing before the install
// leaves a wide window in which a swept key reads clean on the old
// table.
func TestDeltaCleanKeyNeverReadsEmpty(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	x := buildIndex(t, n, ds)
	defer x.Close()

	type key struct{ slot, seg int }
	var empty []key
	table := x.liveHandles()
	for slot := range table {
		for seg := 0; seg < n.NumSegments(); seg++ {
			if table.at(slot, seg).IsZero() {
				empty = append(empty, key{slot, seg})
			}
		}
	}
	const rounds, perRound = 8, 3000
	if len(empty) < rounds*perRound {
		t.Fatalf("only %d keys without a list; the fixture needs %d", len(empty), rounds*perRound)
	}
	for r := 0; r < rounds; r++ {
		keys := empty[r*perRound : (r+1)*perRound]
		obs := make([]DeltaObs, len(keys))
		for i, k := range keys {
			obs[i] = DeltaObs{Seg: roadnet.SegmentID(k.seg), Slot: k.slot, Day: 1, Taxi: 7}
		}
		if err := x.AppendDelta(obs); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, k := range keys {
					if !x.hasList(k.slot, k.seg) {
						t.Errorf("round %d: slot %d seg %d read as having no list mid-compaction", r, k.slot, k.seg)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
		if _, err := x.CompactDeltasBudget(0); err != nil {
			t.Fatal(err)
		}
		close(done)
		wg.Wait()
		if t.Failed() {
			return
		}
		for _, k := range keys {
			if x.live.isDirty(k.slot, k.seg) {
				t.Fatalf("slot %d seg %d still dirty after a full compaction", k.slot, k.seg)
			}
		}
	}
}

// TestDeltaAppendRefreshesCachedReads pins the copy-on-write cache
// refresh: a key resident in the decoded-list cache before an append
// must serve the appended observation on the next read as a cache HIT
// (refreshed, not invalidated), and the list published before the
// append must not have been mutated in place — readers may still hold
// it.
func TestDeltaAppendRefreshesCachedReads(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	live := buildIndex(t, n, ds)
	defer live.Close()

	seg, slot := roadnet.SegmentID(3), 110
	before, err := live.timeListBitsAt(seg, slot) // warms the cache
	if err != nil {
		t.Fatal(err)
	}
	beforeSet := setBits(before)

	st0 := live.CacheStats()
	if err := live.AppendDelta([]DeltaObs{{Seg: seg, Slot: slot, Day: 1, Taxi: 310}}); err != nil {
		t.Fatal(err)
	}
	after, err := live.timeListBitsAt(seg, slot)
	if err != nil {
		t.Fatal(err)
	}
	st1 := live.CacheStats()
	if st1.Misses != st0.Misses {
		t.Fatalf("append evicted the key: post-append read was a cold miss (%+v -> %+v)", st0, st1)
	}
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("post-append read was not a cache hit (%+v -> %+v)", st0, st1)
	}
	if got := len(setBits(after)); got != len(beforeSet)+1 {
		t.Fatalf("refreshed read has %d observations, want %d", got, len(beforeSet)+1)
	}
	if !reflect.DeepEqual(setBits(before), beforeSet) {
		t.Fatal("append mutated a published time list in place")
	}
	// A key NOT resident stays absent: write-only traffic must not be
	// able to flush read-hot entries through the refresh path.
	cold := roadnet.SegmentID(7)
	res0 := live.CacheLen()
	if err := live.AppendDelta([]DeltaObs{{Seg: cold, Slot: 5, Day: 0, Taxi: 311}}); err != nil {
		t.Fatal(err)
	}
	if live.CacheLen() != res0 {
		t.Fatal("append to an uncached key changed cache residency")
	}
}

// TestDeltaBudgetedCompactionConverges checks the incremental fold:
// each budgeted cycle folds at most maxKeys keys (the hottest first, so
// per-cycle folded observations are non-increasing), Remaining reports
// the rolled-over keys honestly, repeated cycles drain the delta, and
// the converged index reads identically to a full one-shot compaction
// of the same delta on a twin index.
func TestDeltaBudgetedCompactionConverges(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	live := buildIndex(t, n, ds)
	defer live.Close()
	twin := buildIndex(t, n, ds)
	defer twin.Close()

	obs := testDeltaObs(live)
	if err := live.AppendDelta(obs); err != nil {
		t.Fatal(err)
	}
	if err := twin.AppendDelta(obs); err != nil {
		t.Fatal(err)
	}

	dirty0 := live.DeltaStats().DirtyKeys
	budget := dirty0 / 4
	if budget < 1 {
		t.Fatalf("test dataset too small: %d dirty keys", dirty0)
	}

	// A budgeted cycle snapshots what it will fold and no more: budget
	// entries out of the whole backlog, the deepest ones.
	live.live.compactMu.Lock()
	keys, snaps := live.live.snapshot(budget)
	live.live.compactMu.Unlock()
	if len(keys) != budget || len(snaps) != budget {
		t.Fatalf("budgeted snapshot holds %d keys / %d entries of a %d-key backlog, want %d", len(keys), len(snaps), dirty0, budget)
	}
	shallowest := int64(1 << 62)
	for _, key := range keys {
		shallowest = min(shallowest, snaps[key].obs)
	}
	for key, e := range live.live.entries {
		if _, picked := snaps[key]; !picked && e.obs > shallowest {
			t.Fatalf("snapshot left out key %d (%d observations) for one with %d", key, e.obs, shallowest)
		}
	}
	if all, _ := live.live.snapshot(0); len(all) != dirty0 {
		t.Fatalf("unbudgeted snapshot holds %d keys, want all %d", len(all), dirty0)
	}

	var cycles int
	var lastFullObs int64 = 1 << 62
	var epoch uint64
	remaining := dirty0
	for {
		cs, err := live.CompactDeltasBudget(budget)
		if err != nil {
			t.Fatal(err)
		}
		cycles++
		if cs.Keys > budget {
			t.Fatalf("cycle %d folded %d keys, budget %d", cycles, cs.Keys, budget)
		}
		if want := remaining - cs.Keys; cs.Remaining != want {
			t.Fatalf("cycle %d: Remaining = %d, want %d (had %d, folded %d)",
				cycles, cs.Remaining, want, remaining, cs.Keys)
		}
		if cs.Epoch != epoch+1 {
			t.Fatalf("cycle %d: epoch %d, want %d", cycles, cs.Epoch, epoch+1)
		}
		epoch = cs.Epoch
		if cs.Keys == budget {
			// Hottest-first selection: a full cycle's folded observation
			// count never increases from the previous full cycle's.
			if cs.Observations > lastFullObs {
				t.Fatalf("cycle %d folded %d observations, previous full cycle folded %d: not hottest-first",
					cycles, cs.Observations, lastFullObs)
			}
			lastFullObs = cs.Observations
		}
		remaining = cs.Remaining
		if remaining > 0 {
			if pend := live.PendingDelta(); len(pend) == 0 {
				t.Fatalf("cycle %d: %d keys remaining but PendingDelta is empty", cycles, remaining)
			}
		}
		if remaining == 0 {
			break
		}
	}
	if cycles < 3 {
		t.Fatalf("budget %d over %d dirty keys converged in %d cycles, want >= 3 (budget not binding)",
			budget, dirty0, cycles)
	}
	if st := live.DeltaStats(); st.DirtyKeys != 0 || st.PendingObs != 0 {
		t.Fatalf("delta not drained after convergence: %+v", st)
	}

	// The twin folds everything in one cycle; reads must agree bit for bit.
	if _, err := twin.CompactDeltasBudget(0); err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < n.NumSegments(); seg++ {
		for slot := 0; slot < live.NumSlots(); slot++ {
			got, err := live.timeListBitsAt(roadnet.SegmentID(seg), slot)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.timeListBitsAt(roadnet.SegmentID(seg), slot)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(setBits(got), setBits(want)) {
				t.Fatalf("(seg=%d slot=%d) budgeted convergence differs from one-shot compaction", seg, slot)
			}
		}
	}
}

// TestRangeReaderDropsMemoAcrossCompaction: a TimeListsRange read whose
// reader memoised the file's tail page before a compaction must not read
// the blob the compaction appended to that page through the old view.
// The one-frame pool evicts the page between the memo fill and the
// append, so the append lands in a fresh frame the old view never sees.
func TestRangeReaderDropsMemoAcrossCompaction(t *testing.T) {
	n := testNetwork(t)
	x, err := Build(n, testDataset(t, n), Config{SlotSeconds: 300, PoolPages: 1, TimeListCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// The key whose base blob ends the file lies on the tail page.
	seg, slot, found := 0, 0, false
	for sl := 0; sl < x.NumSlots() && !found; sl++ {
		for sg := 0; sg < n.NumSegments(); sg++ {
			if h := x.liveHandles().at(sl, sg); !h.IsZero() && h.Offset+int64(h.Length) == x.blob.Tail() {
				seg, slot, found = sg, sl, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no list ends the blob file")
	}
	key := slot*n.NumSegments() + seg
	r := x.newTableReader()
	if _, err := x.readMerged(key, roadnet.SegmentID(seg), slot, &r); err != nil {
		t.Fatal(err)
	}
	tailPage := x.blob.Tail() / storage.PageSize
	if _, err := x.pool.ViewPage(storage.PageID(tailPage - 1)); err != nil { // evicts the tail page
		t.Fatal(err)
	}
	if err := x.AppendDelta([]DeltaObs{{Seg: roadnet.SegmentID(seg), Slot: slot, Day: 0, Taxi: 300}}); err != nil {
		t.Fatal(err)
	}
	if _, err := x.CompactDeltasBudget(0); err != nil {
		t.Fatal(err)
	}
	if h := x.liveHandles().at(slot, seg); h.Offset/storage.PageSize != tailPage {
		t.Fatalf("the compacted list starts on page %d, not on the memoised page %d", h.Offset/storage.PageSize, tailPage)
	}
	got, err := x.readMerged(key, roadnet.SegmentID(seg), slot, &r)
	if err != nil {
		t.Fatalf("read through the reader that memoised the tail page: %v", err)
	}
	want, err := x.timeListBitsAt(roadnet.SegmentID(seg), slot)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(setBits(got), setBits(want)) {
		t.Fatalf("read %v through the old reader, %v through a fresh one", setBits(got), setBits(want))
	}
}
