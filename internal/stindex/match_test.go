package stindex

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"streach/internal/bitset"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/storage"
	"streach/internal/traj"
)

// oracleMatch is the decode-then-intersect verification the streaming
// matcher replaced: every blob decoded with decodeTimeListBits, every
// present day intersected with every source's set. It returns which
// (source, day) pairs matched and the first decode error.
func oracleMatch(days int, sets [][][]uint64, blobs [][]byte) ([][]bool, error) {
	matched := make([][]bool, len(sets))
	for i := range matched {
		matched[i] = make([]bool, days)
	}
	for _, blob := range blobs {
		tl, err := decodeTimeListBits(blob)
		if err != nil {
			return nil, err
		}
		for j, d := range tl.Days {
			if int(d) >= days {
				continue
			}
			for i := range sets {
				if bitset.Intersects(sets[i][d], tl.Bits[j]) {
					matched[i][d] = true
				}
			}
		}
	}
	return matched, nil
}

func bestOf(matched [][]bool) int {
	best := 0
	for _, row := range matched {
		n := 0
		for _, ok := range row {
			if ok {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	return best
}

// streamMatch runs the blobs through a fresh matchState and returns the
// same matrix.
func streamMatch(days int, sets [][][]uint64, blobs [][]byte) ([][]bool, *matchState, error) {
	st := newMatchState(NewMatchSets(days, sets))
	st.reset()
	for _, blob := range blobs {
		if err := st.matchBlob(blob); err != nil {
			return nil, &st, err
		}
	}
	matched := make([][]bool, len(sets))
	for i := range matched {
		matched[i] = make([]bool, days)
		for d := 0; d < days; d++ {
			bit := uint64(1) << (uint(d) & 63)
			matched[i][d] = st.s.need[i][d>>6]&bit != 0 && st.pend[i][d>>6]&bit == 0
		}
	}
	return matched, &st, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// randomSets draws nsrc sources over days days: each day is empty with
// probability emptyShare, otherwise holds a few taxis below maxTaxi.
func randomSets(rng *rand.Rand, nsrc, days, maxTaxi int, emptyShare float64) [][][]uint64 {
	sets := make([][][]uint64, nsrc)
	for i := range sets {
		sets[i] = make([][]uint64, days)
		for d := range sets[i] {
			if rng.Float64() < emptyShare {
				continue
			}
			words := make([]uint64, maxTaxi>>6+1)
			for k := 1 + rng.Intn(4); k > 0; k-- {
				t := rng.Intn(maxTaxi)
				words[t>>6] |= 1 << (uint(t) & 63)
			}
			sets[i][d] = words
		}
	}
	return sets
}

func TestMatchBlobAgreesWithDecoder(t *testing.T) {
	cases := []struct {
		name                string
		nsrc, days, runDays int // runDays > days puts list days past Days()
		maxTaxi, perBlob    int
		setTaxi             int // sets draw taxis below it (0: maxTaxi)
		blobs               int
		emptyShare          float64
	}{
		{name: "packed single source", nsrc: 1, days: 30, runDays: 30, maxTaxi: 500, perBlob: 12, blobs: 5},
		{name: "packed multi source", nsrc: 3, days: 30, runDays: 30, maxTaxi: 300, perBlob: 60, blobs: 6},
		{name: "list days past Days()", nsrc: 2, days: 10, runDays: 90, maxTaxi: 200, perBlob: 80, blobs: 4},
		{name: "multi-word day mask", nsrc: 2, days: 200, runDays: 200, maxTaxi: 100, perBlob: 300, blobs: 3},
		{name: "packed taxis past the sets", nsrc: 2, days: 30, runDays: 30, maxTaxi: maxTaxis, perBlob: 200, setTaxi: 150, blobs: 4},
		{name: "mostly empty start days", nsrc: 2, days: 30, runDays: 30, maxTaxi: 200, perBlob: 50, blobs: 4, emptyShare: 0.8},
		{name: "no start day at all", nsrc: 1, days: 30, runDays: 30, maxTaxi: 200, perBlob: 50, blobs: 2, emptyShare: 1},
		{name: "dense: early exit", nsrc: 1, days: 6, runDays: 6, maxTaxi: 20, perBlob: 120, blobs: 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 40; trial++ {
				setTaxi := tc.setTaxi
				if setTaxi == 0 {
					setTaxi = tc.maxTaxi
				}
				sets := randomSets(rng, tc.nsrc, tc.days, setTaxi, tc.emptyShare)
				blobs := make([][]byte, tc.blobs)
				for b := range blobs {
					blobs[b] = encodePackedRun(randomRun(rng, b, 1, tc.runDays, tc.maxTaxi, tc.perBlob))
				}
				want, err := oracleMatch(tc.days, sets, blobs)
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := streamMatch(tc.days, sets, blobs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					for d := range want[i] {
						if got[i][d] != want[i][d] {
							t.Fatalf("trial %d source %d day %d: streamed %v, decoded %v", trial, i, d, got[i][d], want[i][d])
						}
					}
				}
				if st.best() != bestOf(want) {
					t.Fatalf("trial %d: best %d, want %d", trial, st.best(), bestOf(want))
				}
			}
		})
	}
}

// TestMatchEarlyExitIsExact: once every matchable (source, day) has
// matched, later lists cannot change the answer — the matcher reports
// nothing left, and feeding it the rest of the window changes nothing.
func TestMatchEarlyExitIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const days, maxTaxi = 5, 16
	sets := randomSets(rng, 2, days, maxTaxi, 0.2)
	var full []uint64
	for d := 0; d < days; d++ {
		for taxi := 0; taxi < maxTaxi; taxi++ {
			full = append(full, packTuple(0, 1, d, taxi))
		}
	}
	st := newMatchState(NewMatchSets(days, sets))
	st.reset()
	if err := st.matchBlob(encodePackedRun(full)); err != nil {
		t.Fatal(err)
	}
	if st.left != 0 {
		t.Fatalf("a list holding every taxi on every day left %d pairs unmatched", st.left)
	}
	best := st.best()
	rest := randomRun(rng, 1, 1, days, maxTaxi, 20)
	if err := st.matchBlob(encodePackedRun(rest)); err != nil {
		t.Fatal(err)
	}
	if st.left != 0 || st.best() != best {
		t.Fatalf("a list after the exit moved the answer: left %d best %d -> %d", st.left, best, st.best())
	}
	want, _ := oracleMatch(days, sets, [][]byte{encodePackedRun(full)})
	if best != bestOf(want) {
		t.Fatalf("best %d, decoder says %d", best, bestOf(want))
	}
}

// TestMatchBlobErrorsAreTheDecoders: every truncation of a valid blob,
// the corruptions the decoder knows, and blobs without the packed
// marker — the layouts before it among them — fail both paths with the
// same message, also when the damage sits in a day no source needs, or
// after the point where everything has matched.
func TestMatchBlobErrorsAreTheDecoders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const days, maxTaxi = 12, 300
	run := randomRun(rng, 2, 1, days, maxTaxi, 60)
	packed := encodePackedRun(run)
	check := func(name string, blob []byte, sets [][][]uint64) {
		t.Helper()
		_, want := oracleMatch(days, sets, [][]byte{blob})
		_, _, got := streamMatch(days, sets, [][]byte{blob})
		if errText(got) != errText(want) {
			t.Fatalf("%s: streamed error %q, decoder error %q", name, errText(got), errText(want))
		}
	}
	someSets := randomSets(rng, 2, days, maxTaxi, 0.3)
	noSets := randomSets(rng, 1, days, maxTaxi, 1) // nothing is ever needed
	for _, sets := range [][][][]uint64{someSets, noSets} {
		for cut := 0; cut <= len(packed); cut++ {
			check("packed prefix", packed[:cut], sets)
		}
		// Packed entries out of order and repeated, early and last.
		for _, k := range []int{1, len(run) - 1} {
			swapped := slices.Clone(packed)
			copy(swapped[2+3*k:2+3*k+3], packed[2+3*(k-1):2+3*k])
			copy(swapped[2+3*(k-1):2+3*k], packed[2+3*k:2+3*k+3])
			check(fmt.Sprintf("packed unsorted at %d", k), swapped, sets)
			dup := slices.Clone(packed)
			copy(dup[2+3*k:2+3*k+3], packed[2+3*(k-1):2+3*k])
			check(fmt.Sprintf("packed duplicate at %d", k), dup, sets)
			if _, err := decodeTimeListBits(dup); err == nil {
				t.Fatal("the duplicate fixture decodes; it no longer tests anything")
			}
		}
		// No marker: a sorted-ID list (one day, day 3, taxi 1), a bitset
		// list's marker, and the packed body alone.
		for name, blob := range map[string][]byte{
			"id list":     {1, 0, 3, 0, 1, 0, 1, 0, 0, 0},
			"bitset list": {0xB2, 0xFE, 1, 0, 1, 0, 8, 0, 0, 0, 0, 0, 0, 0},
			"bare body":   packed[2:],
		} {
			if _, err := decodeTimeListBits(blob); err == nil {
				t.Fatalf("%s: a blob without the marker decodes", name)
			}
			check(name, blob, sets)
		}
	}
}

// FuzzMatchBlob: arbitrary bytes never panic the matcher, it
// fails exactly when the decoder fails and with the same message, and on
// every blob the decoder accepts both paths agree on every (source, day).
// The seed picks the start sets' shape, fuzzSetsShape, so the corpus
// runs both kernels: one-word day masks (up to 64 days) with one to
// three sources, and the wide masks past 64 days.
func FuzzMatchBlob(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 12; i++ {
		f.Add(encodePackedRun(randomRun(rng, 1, 1, 130, 300, 1+13*i)), int64(67*i))
	}
	f.Add([]byte{}, int64(0))
	// One source over the paper's 30 days, one over 100, and three
	// sources over 100, each on a list spanning 130 days; the first
	// list is dense, so its days past 63 meet taxis the sets hold on
	// day d-64.
	f.Add(encodePackedRun(randomRun(rng, 1, 1, 130, 300, 4000)), int64(3*29))
	f.Add(encodePackedRun(randomRun(rng, 1, 1, 130, 300, 150)), int64(3*99))
	f.Add(encodePackedRun(randomRun(rng, 1, 1, 130, 300, 150)), int64(3*99+2))
	// Packed: an empty body, a body that is not a whole number of
	// entries, entries out of order (in the last entry, and in the
	// first two of three, which one 8-byte load reads), and an entry
	// repeated.
	f.Add([]byte{packedMarker0, packedMarker1}, int64(4))
	f.Add([]byte{packedMarker0, packedMarker1, 5, 0, 1, 7}, int64(5))
	f.Add([]byte{packedMarker0, packedMarker1, 5, 0, 1, 4, 0, 1}, int64(6))
	f.Add([]byte{packedMarker0, packedMarker1, 5, 0, 1, 4, 0, 1, 6, 0, 1}, int64(6))
	f.Add([]byte{packedMarker0, packedMarker1, 5, 0, 1, 5, 0, 1}, int64(7))
	// Blobs without the marker, which both paths reject: the layouts
	// before the packed one (the last two once made the v1 decoder wrap
	// a day negative and size a bitset at half a gigabyte), and half a
	// marker.
	f.Add([]byte{0xB2, 0xFE, 1, 0, 1, 0}, int64(1))
	f.Add([]byte{2, 0, 1, 0, 2, 0, 200, 0, 0, 0, 1, 0, 0, 0}, int64(2))
	f.Add([]byte{1, 0, 0x30, 0x80, 0, 0}, int64(8))
	f.Add([]byte{1, 0, 1, 0, 1, 0, 0xff, 0xff, 0xff, 0xff}, int64(3))
	f.Add([]byte{packedMarker0}, int64(3))
	f.Fuzz(func(t *testing.T, blob []byte, seed int64) {
		nsrc, days := fuzzSetsShape(seed)
		sets := randomSets(rand.New(rand.NewSource(seed)), nsrc, days, 300, 0.3)
		want, werr := oracleMatch(days, sets, [][]byte{blob})
		got, _, gerr := streamMatch(days, sets, [][]byte{blob})
		if errText(gerr) != errText(werr) {
			t.Fatalf("%d sources over %d days: streamed error %q, decoder error %q", nsrc, days, errText(gerr), errText(werr))
		}
		if werr != nil {
			return
		}
		for i := range want {
			for d := range want[i] {
				if got[i][d] != want[i][d] {
					t.Fatalf("%d sources over %d days: source %d day %d: streamed %v, decoded %v", nsrc, days, i, d, got[i][d], want[i][d])
				}
			}
		}
	})
}

// fuzzSetsShape maps a fuzz seed to a source count in 1..3 and a day
// count in 1..130: seed 3k+j has j+1 sources over k%130+1 days.
func fuzzSetsShape(seed int64) (nsrc, days int) {
	u := uint64(seed)
	return 1 + int(u%3), 1 + int(u/3%130)
}

// startSetsOf reads the per-day taxi sets of (seg, slot) the way the
// query engine's probe does.
func startSetsOf(t testing.TB, x *Index, segs []roadnet.SegmentID, slot int) [][][]uint64 {
	t.Helper()
	sets := make([][][]uint64, len(segs))
	for i, seg := range segs {
		tl, err := x.timeListBitsAt(seg, slot)
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = make([][]uint64, x.Days())
		for j, d := range tl.Days {
			if int(d) < x.Days() {
				sets[i][d] = tl.Bits[j]
			}
		}
	}
	return sets
}

// rangeOracle answers Match through TimeListsRange and the decoder.
func rangeOracle(x *Index, sets [][][]uint64, seg roadnet.SegmentID, lo, hi int) (int, error) {
	lists, err := x.TimeListsRange(seg, lo, hi, nil)
	if err != nil {
		return 0, err
	}
	matched := make([][]bool, len(sets))
	for i := range matched {
		matched[i] = make([]bool, x.Days())
	}
	for _, tl := range lists {
		for j, d := range tl.Days {
			if int(d) >= x.Days() {
				continue
			}
			for i := range sets {
				if bitset.Intersects(sets[i][d], tl.Bits[j]) {
					matched[i][d] = true
				}
			}
		}
	}
	return bestOf(matched), nil
}

// busiest returns the segments with the most traffic at slot, busiest
// first.
func busiest(t testing.TB, x *Index, slot, n int) []roadnet.SegmentID {
	t.Helper()
	type load struct {
		seg roadnet.SegmentID
		obs int
	}
	var loads []load
	for seg := 0; seg < x.Network().NumSegments(); seg++ {
		tl, err := x.timeListBitsAt(roadnet.SegmentID(seg), slot)
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, load{roadnet.SegmentID(seg), len(setBits(tl))})
	}
	sort.SliceStable(loads, func(i, j int) bool { return loads[i].obs > loads[j].obs })
	out := make([]roadnet.SegmentID, n)
	for i := range out {
		out[i] = loads[i].seg
	}
	return out
}

func TestMatcherAgreesWithTimeListsRange(t *testing.T) {
	n := testNetwork(t)
	x := buildIndex(t, n, testDataset(t, n))
	defer x.Close()
	const startSlot = 114 // 09:30, inside the simulated shift
	sources := busiest(t, x, startSlot, 3)
	sets := startSetsOf(t, x, sources, startSlot)
	m := x.NewMatcher(NewMatchSets(x.Days(), sets))

	// The blob file packs lists back to back, so some straddle a page
	// boundary and are assembled rather than viewed: make sure the
	// windows below walk such lists.
	straddlers := 0
	for _, h := range flatHandles(x) {
		if !h.IsZero() && int(h.Offset%storage.PageSize)+int(h.Length) > storage.PageSize {
			straddlers++
		}
	}
	if straddlers == 0 {
		t.Fatal("no time list spans two pages; the multi-page read path is untested")
	}
	windows := [][2]int{
		{startSlot, startSlot + 4}, {startSlot, startSlot}, {108, 131},
		{-3, 2}, {x.NumSlots() - 2, x.NumSlots() + 5}, {-10, -1}, {x.NumSlots(), x.NumSlots() + 3},
	}
	nonzero := 0
	for _, w := range windows {
		for seg := -1; seg <= n.NumSegments(); seg++ {
			id := roadnet.SegmentID(seg)
			want, err := rangeOracle(x, sets, id, w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Match(id, w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seg %d window %v: streamed %d matched days, decoded %d", seg, w, got, want)
			}
			if got > 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("no candidate matched on any day; the fixture tests nothing")
	}
	if m.Lists() == 0 {
		t.Fatal("matcher walked no list")
	}
}

// TestMatcherEnforcesSliceOwnership: on a shard slice, a match fails
// exactly where TimeListsRange fails, with the same error.
func TestMatcherEnforcesSliceOwnership(t *testing.T) {
	n := testNetwork(t)
	x := buildIndex(t, n, testDataset(t, n))
	defer x.Close()
	owned := bitset.New(n.NumSegments())
	for seg := 0; seg < n.NumSegments(); seg += 2 {
		owned.Add(seg)
	}
	const lo, hi = 110, 120
	sets := startSetsOf(t, x, busiest(t, x, 114, 1), 114)
	slice := x.Slice(1, owned)
	m := slice.NewMatcher(NewMatchSets(x.Days(), sets))
	for _, w := range [][2]int{{lo, hi}, {lo + 2, hi - 2}, {lo - 1, hi}, {lo, hi + 1}, {-5, 3}, {x.NumSlots() + 1, x.NumSlots() + 2}} {
		for seg := -1; seg <= n.NumSegments(); seg++ {
			id := roadnet.SegmentID(seg)
			want, werr := rangeOracle(slice, sets, id, w[0], w[1])
			got, gerr := m.Match(id, w[0], w[1])
			if errText(gerr) != errText(werr) {
				t.Fatalf("seg %d window %v: streamed error %q, decoded error %q", seg, w, errText(gerr), errText(werr))
			}
			if werr == nil && got != want {
				t.Fatalf("seg %d window %v: streamed %d, decoded %d", seg, w, got, want)
			}
		}
	}
}

// TestMatcherUnderAppendsAndCompactions runs long-lived matchers while
// appenders grow the delta layer and a budgeted compactor keeps
// installing new handle tables, on a pool small enough that pages are
// evicted and re-read between installs. Observations only accumulate, so
// a match may never fall below the base index's answer nor exceed the
// final one, nor fall below the same matcher's previous answer for the
// segment; once the writers stop, the same matchers — page memos and
// all — must answer exactly as an offline rebuild over the union does,
// before and after the last fold.
//
// Every install is also held to the table's copy-on-write contract: a
// fresh top level, the rows of slots it folded nothing into shared with
// the table before (the very same array), the superseded table left
// exactly as it was, and slots that never had a list still without a
// row.
func TestMatcherUnderAppendsAndCompactions(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	build := func(ds *traj.Dataset) *Index {
		x, err := Build(n, ds, Config{SlotSeconds: 300, PoolPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	live := build(ds)
	defer live.Close()

	const startSlot, lo, hi = 114, 114, 118
	sources := busiest(t, live, startSlot, 2)
	sets := startSetsOf(t, live, sources, startSlot)
	ms := NewMatchSets(live.Days(), sets)
	nseg := n.NumSegments()

	// Every appended observation reuses a taxi some source saw on that
	// day, so appends do move the answers.
	var obs []DeltaObs
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1200; i++ {
		d := rng.Intn(live.Days())
		set := sets[rng.Intn(len(sets))][d]
		if set == nil {
			continue
		}
		var taxis []int
		bitset.ForEach(set, func(t int) { taxis = append(taxis, t) })
		obs = append(obs, DeltaObs{
			Seg:  roadnet.SegmentID(rng.Intn(nseg)),
			Slot: lo + rng.Intn(hi-lo+1),
			Day:  traj.Day(d),
			Taxi: traj.TaxiID(taxis[rng.Intn(len(taxis))]),
		})
	}
	union := &traj.Dataset{BaseDate: ds.BaseDate, Days: ds.Days,
		Matched: append(append([]traj.MatchedTrajectory(nil), ds.Matched...), deltaObsAsVisits(obs, live.SlotSeconds())...)}
	offline := build(union)
	defer offline.Close()

	answers := func(x *Index) []int {
		m := x.NewMatcher(ms)
		out := make([]int, nseg)
		for seg := range out {
			var err error
			if out[seg], err = m.Match(roadnet.SegmentID(seg), lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	floor, ceiling := answers(live), answers(offline)
	moved := false
	for seg := range floor {
		moved = moved || ceiling[seg] > floor[seg]
	}
	if !moved {
		t.Fatal("the appended observations change no answer; the fixture tests nothing")
	}

	const verifiers = 3
	matchers := make([]*Matcher, verifiers)
	for i := range matchers {
		matchers[i] = live.NewMatcher(ms)
	}
	stop, appended := make(chan struct{}), make(chan struct{})
	var writers, readers sync.WaitGroup
	writers.Add(2)
	go func() { // appender
		defer writers.Done()
		defer close(appended)
		for i := 0; i < len(obs); i += 10 {
			end := i + 10
			if end > len(obs) {
				end = len(obs)
			}
			if err := live.AppendDelta(obs[i:end]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	installs, churn := 0, 0
	go func() { // compactor: small budgets, an install per cycle
		defer writers.Done()
		for {
			select {
			case <-appended:
				if installs >= 5 {
					return
				}
			default:
			}
			before := live.liveHandles()
			frozen := flatHandles(live)
			st, err := live.CompactDeltasBudget(24)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Keys > 0 {
				installs++
				if msg := checkInstall(before, frozen, live, lo, hi, st.Keys); msg != "" {
					t.Error(msg)
					return
				}
			}
			// Churn the four-page pool, so the tail page the next cycle
			// appends to has been evicted and comes back as a fresh frame —
			// the case a memoised view of the old frame would miss.
			for i := 0; i < 8; i++ {
				churn++
				if _, err := live.Pool().ViewPage(storage.PageID(int64(churn) % live.Pool().NumPages())); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for _, m := range matchers {
		readers.Add(1)
		go func(m *Matcher) {
			defer readers.Done()
			// last[seg] is this matcher's previous answer for seg.
			// Observations only accumulate, so a later read may never
			// match fewer days: the bound the [floor, ceiling] check
			// cannot see, of a fold lost between a clean key's bit and
			// its table.
			last := slices.Clone(floor)
			for seg := 0; ; seg = (seg + 1) % nseg {
				select {
				case <-stop:
					return
				default:
				}
				got, err := m.Match(roadnet.SegmentID(seg), lo, hi)
				if err != nil {
					t.Error(err)
					return
				}
				if got < floor[seg] || got > ceiling[seg] {
					t.Errorf("seg %d: matched %d days mid-ingest, outside [%d, %d]", seg, got, floor[seg], ceiling[seg])
					return
				}
				if got < last[seg] {
					t.Errorf("seg %d: matched %d days after matching %d", seg, got, last[seg])
					return
				}
				last[seg] = got
			}
		}(m)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	equalOffline := func(when string) {
		t.Helper()
		for _, m := range matchers {
			for seg := 0; seg < nseg; seg++ {
				got, err := m.Match(roadnet.SegmentID(seg), lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if got != ceiling[seg] {
					t.Fatalf("%s, seg %d: matched %d days, offline rebuild %d", when, seg, got, ceiling[seg])
				}
			}
		}
	}
	equalOffline("with the delta tail pending")
	if _, err := live.CompactDeltasBudget(0); err != nil {
		t.Fatal(err)
	}
	if st := live.DeltaStats(); st.PendingObs != 0 {
		t.Fatalf("delta not drained: %+v", st)
	}
	equalOffline("after the last fold")
	if installs < 5 {
		t.Fatalf("only %d installs ran beside the matchers", installs)
	}
	// The folded table is the offline rebuild's, row for row: the same
	// slots have rows, the same keys have lists.
	lt, ot := live.liveHandles(), offline.liveHandles()
	empty := 0
	for slot := range lt {
		if (lt[slot] == nil) != (ot[slot] == nil) {
			t.Fatalf("slot %d: live has a row %v, offline rebuild %v", slot, lt[slot] != nil, ot[slot] != nil)
		}
		if lt[slot] == nil {
			empty++
		}
		for seg := range lt[slot] {
			if lt[slot][seg].IsZero() != ot[slot][seg].IsZero() {
				t.Fatalf("slot %d seg %d: list presence differs from the offline rebuild", slot, seg)
			}
		}
	}
	if empty == 0 {
		t.Fatal("every slot has a row; the fixture never exercises a slot without one")
	}
}

// checkInstall holds one compaction install to the handle table's
// copy-on-write contract (see TestMatcherUnderAppendsAndCompactions):
// before and frozen are the table installed before the cycle and a flat
// copy of its contents, [lo, hi] the only slots the test appends to.
// It returns what is wrong, or "".
func checkInstall(before handleTable, frozen []storage.BlobHandle, x *Index, lo, hi, folded int) string {
	after := x.liveHandles()
	if &after[0] == &before[0] {
		return "install reused the superseded table's top level"
	}
	nseg := x.net.NumSegments()
	changed := 0
	for slot := range after {
		b, a := before[slot], after[slot]
		if b != nil && !slices.Equal(b, frozen[slot*nseg:(slot+1)*nseg]) {
			return fmt.Sprintf("slot %d: the install wrote into the superseded table's row", slot)
		}
		same := (a == nil && b == nil) || (a != nil && b != nil && &a[0] == &b[0])
		if same {
			continue
		}
		changed++
		if slot < lo || slot > hi {
			return fmt.Sprintf("slot %d: row replaced although nothing is appended outside [%d, %d]", slot, lo, hi)
		}
		if a == nil {
			return fmt.Sprintf("slot %d: row dropped by an install", slot)
		}
	}
	if changed == 0 || changed > folded {
		return fmt.Sprintf("install of %d keys replaced %d rows", folded, changed)
	}
	return ""
}

// BenchmarkMatch times the packed-blob matcher on lists shaped like the
// benchmark world's: a quarter of its city (10×10 blocks of 1 km, cut
// into 500 m segments) and of its fleet (125 taxis), the same 30 days
// and 06:00–12:00 shift, so a list holds about as many entries. Each
// candidate segment is matched over the five slots of a 20-minute window
// from 09:00 against the start sets of the busiest one or three
// segments, stopping early as Match does; the blobs are read into memory
// first, so only the matcher is timed. It reports ns per entry walked.
func BenchmarkMatch(b *testing.B) {
	n, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin:        geo.Point{Lat: 22.45, Lng: 113.90},
		Rows:          10,
		Cols:          10,
		SpacingMeters: 1000,
		LocalFraction: 0.4,
		Seed:          1,
	})
	if err == nil {
		n, err = roadnet.Resegment(n, 500)
	}
	if err != nil {
		b.Fatal(err)
	}
	ds, err := traj.Simulate(n, traj.SimConfig{
		Taxis: 125, Days: 30, Seed: 2, Profile: traj.DefaultSpeedProfile(), DaySpeedJitter: 0.15,
		ActiveStartSec: 6 * 3600, ActiveEndSec: 12 * 3600,
	})
	if err != nil {
		b.Fatal(err)
	}
	x, err := Build(n, ds, Config{SlotSeconds: 300})
	if err != nil {
		b.Fatal(err)
	}
	defer x.Close()
	const lo, hi = 108, 112
	reader := x.blob.NewReader()
	candidates := make([][][]byte, n.NumSegments())
	for seg := range candidates {
		for slot := lo; slot <= hi; slot++ {
			if h := x.liveHandles().at(slot, seg); !h.IsZero() {
				blob, err := reader.Read(h)
				if err != nil {
					b.Fatal(err)
				}
				candidates[seg] = append(candidates[seg], slices.Clone(blob))
			}
		}
	}
	for _, nsrc := range []int{1, 3} {
		b.Run(fmt.Sprintf("sources=%d", nsrc), func(b *testing.B) {
			sets := startSetsOf(b, x, busiest(b, x, lo, nsrc), lo)
			st := newMatchState(NewMatchSets(x.Days(), sets))
			entries := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, blobs := range candidates {
					st.reset()
					for _, blob := range blobs {
						if st.left == 0 {
							break
						}
						if err := st.matchBlob(blob); err != nil {
							b.Fatal(err)
						}
						entries += (len(blob) - 2) / 3
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
		})
	}
}

// slotTrafficRef counts, per (slot, segment), the distinct days of the
// raw visits that overlap the slot plus the delta observations at it.
func slotTrafficRef(x *Index, ds *traj.Dataset, obs []DeltaObs) [][]int {
	slotMs := int32(x.SlotSeconds() * 1000)
	days := make([]map[[2]int]bool, x.NumSlots())
	for i := range days {
		days[i] = map[[2]int]bool{}
	}
	for _, mt := range ds.Matched {
		for _, v := range mt.Visits {
			lo, hi := slotSpan(v, slotMs, x.NumSlots())
			for slot := lo; slot <= hi; slot++ {
				days[slot][[2]int{int(v.Segment), int(mt.Day)}] = true
			}
		}
	}
	for _, o := range obs {
		days[o.Slot][[2]int{int(o.Seg), int(o.Day)}] = true
	}
	out := make([][]int, x.NumSlots())
	for slot := range out {
		out[slot] = make([]int, x.Network().NumSegments())
		for k := range days[slot] {
			out[slot][k[0]]++
		}
	}
	return out
}

// TestSlotTrafficCountsMergedDays: SlotTraffic is the raw count of
// distinct days per segment at every slot — over one-word and two-word
// day masks, the largest taxi, with pending deltas and after their
// compaction — and leaves the decoded-list cache as it found it.
func TestSlotTrafficCountsMergedDays(t *testing.T) {
	n := testNetwork(t)
	wide := randomDataset(rand.New(rand.NewSource(7)), n.NumSegments(), 70, 400, 300)
	for name, ds := range map[string]*traj.Dataset{"simulated": testDataset(t, n), "70 days": wide} {
		t.Run(name, func(t *testing.T) {
			x := buildIndex(t, n, ds)
			defer x.Close()
			check := func(stage string, obs []DeltaObs) {
				t.Helper()
				want := slotTrafficRef(x, ds, obs)
				cacheStats, cacheLen := x.CacheStats(), x.CacheLen()
				for slot := -1; slot <= x.NumSlots(); slot++ {
					got, err := x.SlotTraffic(slot)
					if err != nil {
						t.Fatal(err)
					}
					if slot < 0 || slot == x.NumSlots() {
						if slices.ContainsFunc(got, func(n int) bool { return n != 0 }) {
							t.Fatalf("%s: slot %d outside the day counts traffic", stage, slot)
						}
						continue
					}
					if !slices.Equal(got, want[slot]) {
						t.Fatalf("%s: slot %d: SlotTraffic = %v, raw visits say %v", stage, slot, got, want[slot])
					}
				}
				if x.CacheStats() != cacheStats || x.CacheLen() != cacheLen {
					t.Fatalf("%s: SlotTraffic moved the decoded-list cache", stage)
				}
			}
			check("base", nil)
			obs := testDeltaObs(x)
			obs = append(obs, DeltaObs{Seg: 0, Slot: 0, Day: traj.Day(x.Days() - 1), Taxi: maxTaxis - 1})
			if err := x.AppendDelta(obs); err != nil {
				t.Fatal(err)
			}
			check("base+delta", obs)
			if _, err := x.CompactDeltasBudget(0); err != nil {
				t.Fatal(err)
			}
			check("compacted", obs)
		})
	}
}
