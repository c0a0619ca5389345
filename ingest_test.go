package streach

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"streach/internal/traj"
)

// liveFixtureUpdates is a deterministic batch of position updates from a
// fresh fleet (taxi IDs above anything simulated), concentrated around
// the test query window so the answers actually change.
func liveFixtureUpdates(s *System) []IngestUpdate {
	n := s.Network().NumSegments()
	days := s.Dataset().Days
	var out []IngestUpdate
	for i := 0; i < 600; i++ {
		enterMs := int32((10*3600+600*(i%15))*1000 + (i%7)*1000)
		out = append(out, IngestUpdate{
			TaxiID:    int32(1000 + i%25),
			Day:       i % days,
			SegmentID: int32((i * 13) % n),
			EnterMs:   enterMs,
			ExitMs:    enterMs + 45_000,
			SpeedMps:  float32(4 + i%9),
		})
	}
	return out
}

// blanketUpdates covers every segment on every day at the given slots,
// so any reach query inside that window flips to full-probability
// answers once the batch lands — a guaranteed answer change for
// cache-staleness tests, no matter how dense the base traffic is.
func blanketUpdates(s *System, slots []int) []IngestUpdate {
	n := s.Network().NumSegments()
	days := s.Dataset().Days
	var out []IngestUpdate
	for day := 0; day < days; day++ {
		for seg := 0; seg < n; seg++ {
			for _, slot := range slots {
				ms := int32(slot*300*1000 + 1000)
				out = append(out, IngestUpdate{
					TaxiID: int32(1000 + seg%30), Day: day, SegmentID: int32(seg),
					EnterMs: ms, ExitMs: ms + 20_000, SpeedMps: 8,
				})
			}
		}
	}
	return out
}

// unionDataset builds the dataset an offline rebuild would see: the base
// trajectories plus every ingested update as a one-visit trajectory.
func unionDataset(base *traj.Dataset, updates []IngestUpdate) *traj.Dataset {
	matched := append([]traj.MatchedTrajectory(nil), base.Matched...)
	for _, u := range toIngestUpdates(updates) {
		matched = append(matched, traj.MatchedTrajectory{
			Taxi: u.Taxi, Day: u.Day,
			Visits: []traj.Visit{{Segment: u.Seg, EnterMs: u.EnterMs, ExitMs: u.ExitMs, Speed: u.Speed}},
		})
	}
	return &traj.Dataset{BaseDate: base.BaseDate, Days: base.Days, Matched: matched}
}

// TestIngestEquivalenceOfflineRebuild is the tentpole acceptance test:
// a system answering from base + delta (and, after compaction, from the
// folded blobs) is bit-identical to one built offline over the union of
// base and ingested data — across probability thresholds, query kinds,
// and sharding.
func TestIngestEquivalenceOfflineRebuild(t *testing.T) {
	base := smallSystem(t)
	live := variant(t, vcfg{planCache: -1})
	if err := live.StartIngest(IngestConfig{FlushInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	updates := liveFixtureUpdates(live)
	if err := live.Ingest(context.Background(), updates); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := live.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}

	reqs := requestMatrix(base, 10*time.Hour).full
	offline := replay(serial(variant(t, vcfg{planCache: -1, data: unionDataset(base.Dataset(), updates)})), reqs)
	check := func(stage string, sys *System) {
		t.Run(stage, func(t *testing.T) { checkOracle(t, offline, serial(sys), reqs) })
	}

	check("base+delta k=1", live)

	// Sharded execution over the merged reads.
	if err := live.Shard(4); err != nil {
		t.Fatal(err)
	}
	check("base+delta k=4", live)

	res, err := live.CompactIngestN(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Keys == 0 || res.Epoch != 1 {
		t.Fatalf("compaction result: %+v", res)
	}
	if res.Durable {
		t.Fatal("directory-less system reported a durable compaction")
	}
	if live.IngestStats().Epoch != 1 {
		t.Fatalf("epoch = %d after compaction", live.IngestStats().Epoch)
	}
	check("post-compaction k=4", live)
	if err := live.Shard(1); err != nil {
		t.Fatal(err)
	}
	check("post-compaction k=1", live)

	st := live.IngestStats()
	if st.DirtyKeys != 0 || st.PendingObs != 0 {
		t.Fatalf("delta not drained: %+v", st)
	}
	if st.Applied != int64(len(updates)) || st.Dropped != 0 {
		t.Fatalf("writer stats: %+v (want %d applied)", st, len(updates))
	}
}

// TestIngestDropsBadSpeeds: a live update whose speed is NaN, infinite
// or negative is a counted drop, like one out of range, and adds no
// observation to the ST-Index delta; the good update beside them is
// applied.
func TestIngestDropsBadSpeeds(t *testing.T) {
	base := smallSystem(t)
	s, err := NewSystemFromData(base.Network(), base.Dataset(), DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StartIngest(IngestConfig{FlushInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	const enter = 10 * 3600 * 1000
	update := func(speed float64) IngestUpdate {
		return IngestUpdate{TaxiID: 1000, Day: 0, SegmentID: 3, EnterMs: enter, ExitMs: enter + 20_000, SpeedMps: float32(speed)}
	}
	updates := []IngestUpdate{update(math.NaN()), update(math.Inf(1)), update(math.Inf(-1)), update(-2), update(8)}
	if err := s.Ingest(context.Background(), updates); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.IngestStats()
	if st.Applied != 1 || st.Dropped != 4 || st.PendingObs != 1 {
		t.Fatalf("applied %d dropped %d pending observations %d, want 1, 4 and 1", st.Applied, st.Dropped, st.PendingObs)
	}
}

// TestIngestVersionKeysInvalidateCaches: the plan store's key carries
// the data version (ST-Index data version, Con-Index invalidation
// generation), so a stored plan can never outlive the data it was
// computed from.
func TestIngestVersionKeysInvalidateCaches(t *testing.T) {
	base := smallSystem(t)
	sys := variant(t, vcfg{}) // the default plan store
	if err := sys.StartIngest(IngestConfig{FlushInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	// Query an off-peak window, then blanket it with live traffic: the
	// answer is guaranteed to change, so a stale stored plan is caught.
	req := ReachRequest(base.BusiestLocation(10*time.Hour), 2*time.Hour, 10*time.Minute, 0.2)
	version := func() [2]uint64 {
		k := sys.planKey(req, queryOptions{})
		return [2]uint64{k.data, k.conGen}
	}
	key0 := version()
	before, err := sys.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Same request again: must hit the plan cache.
	sh0 := sys.SharingStats()
	if _, err := sys.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if sys.SharingStats().PlanCacheHits <= sh0.PlanCacheHits {
		t.Fatal("repeat query did not hit the plan cache")
	}

	if err := sys.Ingest(context.Background(), blanketUpdates(sys, []int{24, 25, 26})); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	if version() == key0 {
		t.Fatal("ingest did not change the plan key's data version")
	}

	// The same request now must MISS the plan cache (stale plan would
	// return the pre-ingest region) and reflect the new data.
	sh1 := sys.SharingStats()
	after, err := sys.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if sys.SharingStats().PlanCacheHits != sh1.PlanCacheHits {
		t.Fatal("post-ingest query served from a pre-ingest cached plan")
	}
	if reflect.DeepEqual(before.SegmentIDs, after.SegmentIDs) &&
		reflect.DeepEqual(before.Probabilities, after.Probabilities) {
		t.Fatal("fixture too weak: ingest did not change the answer at all")
	}

	// Compaction bumps the version again (new epoch).
	key1 := version()
	if _, err := sys.CompactIngestN(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if version() == key1 {
		t.Fatal("compaction did not change the plan key's data version")
	}
}

// TestIngestConcurrentWithQueries races live ingestion, queries, and
// compactions (run under -race): no errors, no torn reads, and the final
// state answers like the offline rebuild.
func TestIngestConcurrentWithQueries(t *testing.T) {
	base := smallSystem(t)
	live := variant(t, vcfg{planCache: -1, shards: 4})
	if err := live.StartIngest(IngestConfig{FlushInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	updates := liveFixtureUpdates(live)
	req := ReachRequest(base.BusiestLocation(10*time.Hour), 10*time.Hour, 10*time.Minute, 0.2)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // queriers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := live.Do(context.Background(), req); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := live.CompactIngestN(context.Background(), 0); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	for off := 0; off < len(updates); off += 50 {
		if err := live.Ingest(context.Background(), updates[off:off+50]); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := live.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if _, err := live.CompactIngestN(context.Background(), 0); err != nil {
		t.Fatal(err)
	}

	offline := variant(t, vcfg{planCache: -1, data: unionDataset(base.Dataset(), updates)})
	checkOracle(t, serial(offline), serial(live), requestMatrix(base, 10*time.Hour).smoke)
}

// TestIngestEpochSwapLeaksNoGoroutines: repeated start/ingest/compact/
// close cycles leave no workers behind.
func TestIngestEpochSwapLeaksNoGoroutines(t *testing.T) {
	smallSystem(t) // built before the count
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		live := variant(t, vcfg{planCache: -1})
		if err := live.StartIngest(IngestConfig{Workers: 3, FlushInterval: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if err := live.Ingest(context.Background(), liveFixtureUpdates(live)[:200]); err != nil {
			t.Fatal(err)
		}
		if _, err := live.CompactIngestN(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Allow stragglers to exit before counting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after ingest cycles", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStartIngestAfterClose: StartIngest on a closed system returns an
// error and starts nothing — no writer, no WAL segment, no compaction
// loop — so no later update is acknowledged.
func TestStartIngestAfterClose(t *testing.T) {
	s := variant(t, vcfg{saved: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before, segments := runtime.NumGoroutine(), len(walSegmentFiles(t, s.dir))
	if err := s.StartIngest(IngestConfig{CompactInterval: time.Second}); err == nil {
		t.Fatal("StartIngest on a closed system returned nil")
	}
	upd := []IngestUpdate{{TaxiID: 1, Day: 0, SegmentID: 0, EnterMs: 1000, ExitMs: 2000, SpeedMps: 9}}
	if err := s.Ingest(context.Background(), upd); err == nil {
		t.Fatal("a closed system acknowledged an update")
	}
	if got := len(walSegmentFiles(t, s.dir)); got != segments {
		t.Fatalf("the WAL went from %d to %d segments after Close", segments, got)
	}
	assertNoGoroutineGrowth(t, before)
}

// walSegmentFiles lists dir/wal's segment files, sorted by name (epoch
// then sequence order).
func walSegmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, walDirName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".log") {
			out = append(out, filepath.Join(dir, walDirName, e.Name()))
		}
	}
	return out
}

// TestOpenRefusesLegacyIngestDelta: a save directory holding a non-empty
// ingest.delta (the single-file WAL of builds before the segmented one)
// must not open — ignoring the file would drop acknowledged updates —
// and the refusal comes before anything in the directory is rewritten,
// even a damaged index that an open would otherwise repair in place. An
// empty file is no updates and opens normally.
func TestOpenRefusesLegacyIngestDelta(t *testing.T) {
	dir := t.TempDir()
	if err := smallSystem(t).Save(dir); err != nil {
		t.Fatal(err)
	}
	meta := filepath.Join(dir, fileSTMeta)
	if err := os.Truncate(meta, 10); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, fileIngestDelta)
	if err := os.WriteFile(legacy, []byte("IDLT\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]string, len(entries))
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	before := snapshot()

	sys, err := OpenSystem(dir, DefaultIndexConfig())
	if err == nil {
		sys.Close()
		t.Fatal("OpenSystem accepted a directory with a non-empty ingest.delta")
	}
	if CodeOf(err) != CorruptData {
		t.Fatalf("code = %v, want CorruptData: %v", CodeOf(err), err)
	}
	for _, want := range []string{legacy, "before the segmented WAL", "delete the file"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error does not mention %q: %v", want, err)
		}
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatal("refused open modified the save directory")
	}

	if err := os.Truncate(legacy, 0); err != nil {
		t.Fatal(err)
	}
	sys, err = OpenSystem(dir, DefaultIndexConfig())
	if err != nil {
		t.Fatalf("zero-length ingest.delta should open: %v", err)
	}
	sys.Close()
}

// TestIngestWALReplayOnOpen: accepted updates survive a crash (a close
// without compaction) via the segmented WAL, and the reopened system
// folds them back in before serving.
func TestIngestWALReplayOnOpen(t *testing.T) {
	base := smallSystem(t)
	dir := t.TempDir()
	if err := base.Save(dir); err != nil {
		t.Fatal(err)
	}
	sys := variant(t, vcfg{planCache: -1, dir: dir})
	if err := sys.StartIngest(IngestConfig{FlushInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(context.Background(), liveFixtureUpdates(sys)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	reqs := requestMatrix(sys, 10*time.Hour).full
	want := replay(serial(sys), reqs)
	// "Crash": close without compacting. The WAL segments must hold the
	// updates.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walSegmentFiles(t, dir)
	if len(segs) == 0 {
		t.Fatal("no wal segments after close without compaction")
	}
	var walBytes int64
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		walBytes += fi.Size()
	}
	if walBytes <= int64(len(segs))*24 {
		t.Fatalf("wal segments hold no frames (%d files, %d bytes)", len(segs), walBytes)
	}

	reopened := variant(t, vcfg{planCache: -1, dir: dir})
	checkOracle(t, want, serial(reopened), reqs)

	// A durable compaction retires every covered segment; the next open
	// needs no replay and still answers identically.
	if err := reopened.StartIngest(IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	res, err := reopened.CompactIngestN(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Durable {
		t.Fatalf("compaction on a dir-backed system not durable: %+v", res)
	}
	if left := walSegmentFiles(t, dir); len(left) != 0 {
		t.Fatalf("wal segments not retired after durable full compaction: %v", left)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, want, serial(variant(t, vcfg{planCache: -1, dir: dir})), reqs)
}

// TestSaveElsewhereThenCompactPersistsThere: an opened system saved into
// a second directory lives there from then on, but its page store is
// still the first directory's pages.db. A durable compaction must
// therefore carry the pages over with the meta — syncing the store is
// not enough — or the second directory ends up with a meta whose
// handles point past its stale page file.
func TestSaveElsewhereThenCompactPersistsThere(t *testing.T) {
	base := smallSystem(t)
	dir, other := t.TempDir(), t.TempDir()
	if err := base.Save(dir); err != nil {
		t.Fatal(err)
	}
	sys := variant(t, vcfg{planCache: -1, dir: dir})
	if err := sys.Save(other); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartIngest(IngestConfig{FlushInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(context.Background(), liveFixtureUpdates(sys)); err != nil {
		t.Fatal(err)
	}
	res, err := sys.CompactIngestN(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Durable || res.Epoch == 0 {
		t.Fatalf("compaction after Save(other) not durable: %+v", res)
	}
	if left := walSegmentFiles(t, other); len(left) != 0 {
		t.Fatalf("wal segments left in the new directory after a durable full compaction: %v", left)
	}

	logged := captureLog(t)
	reopened := variant(t, vcfg{planCache: -1, dir: other})
	if strings.Contains(logged.String(), "rebuild") {
		t.Fatalf("the new directory needed a repair on open:\n%s", logged.String())
	}
	checkOracle(t, serial(sys), serial(reopened), requestMatrix(sys, 10*time.Hour).smoke)
}

// TestIngestWALCorruptionFuzz pins damage containment at the system
// level: a flipped bit in one WAL segment is detected by frame CRC on
// reopen and costs only that segment's suffix — the file is truncated
// to its intact prefix (or removed, for header damage), LATER SEGMENTS
// STILL REPLAY, and re-ingesting converges back to the full answer
// (never a silently merged corrupt record).
func TestIngestWALCorruptionFuzz(t *testing.T) {
	base := smallSystem(t)
	dir := t.TempDir()
	if err := base.Save(dir); err != nil {
		t.Fatal(err)
	}
	reqs := requestMatrix(base, 10*time.Hour).smoke

	// Write a multi-segment WAL through a live session (tiny rotation
	// threshold), keep a pristine copy of every segment.
	sys := variant(t, vcfg{planCache: -1, dir: dir})
	if err := sys.StartIngest(IngestConfig{FlushInterval: time.Millisecond, BatchSize: 16, WALSegmentBytes: 512}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(context.Background(), liveFixtureUpdates(sys)[:300]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	fullAnswer := replay(serial(sys), reqs)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walSegmentFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("rotation produced only %d segments, need >= 3 for boundary fuzz", len(segs))
	}
	pristine := make(map[string][]byte, len(segs))
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		pristine[p] = data
	}
	restore := func() {
		for _, p := range segs {
			if err := os.WriteFile(p, pristine[p], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	logBuf := captureLog(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		// Flip a bit in an early segment — never the last, so "later
		// segments still replay" is actually exercised every trial. Even
		// trials target the frame area; odd trials hit the header's
		// magic/version bytes (whole-file drop).
		target := segs[trial%(len(segs)-1)]
		mut := append([]byte(nil), pristine[target]...)
		var bit int
		if trial%2 == 1 {
			bit = rng.Intn(6 * 8)
		} else {
			bit = 24*8 + rng.Intn((len(mut)-24)*8)
		}
		mut[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(target, mut, 0o644); err != nil {
			t.Fatal(err)
		}

		t.Logf("trial %d: bit %d of %s flipped", trial, bit, filepath.Base(target))
		logBuf.Reset()
		reopened := variant(t, vcfg{planCache: -1, dir: dir})
		logs := logBuf.String()
		if !strings.Contains(logs, "corrupt") && !strings.Contains(logs, "unreadable") {
			t.Fatalf("trial %d: corruption not logged:\n%s", trial, logs)
		}
		// Damage is contained to the corrupt segment: a bad header drops
		// the file, a bad frame truncates to the intact prefix; either
		// way every later segment must have survived untouched.
		if fi, err := os.Stat(target); err == nil {
			if fi.Size() > int64(len(pristine[target])) {
				t.Fatalf("trial %d: corrupt segment grew (%d > %d bytes)", trial, fi.Size(), len(pristine[target]))
			}
		} else if !os.IsNotExist(err) {
			t.Fatal(err)
		}
		for _, p := range segs {
			if p == target {
				continue
			}
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("trial %d: intact segment %s gone: %v", trial, filepath.Base(p), err)
			}
			if !bytes.Equal(data, pristine[p]) {
				t.Fatalf("trial %d: intact segment %s modified by repair", trial, filepath.Base(p))
			}
		}

		// Re-ingesting everything must converge back to the full live
		// answer: the replayed prefix and the later segments are absorbed
		// by set union, the lost suffix is re-supplied.
		if err := reopened.StartIngest(IngestConfig{FlushInterval: time.Millisecond, BatchSize: 16, WALSegmentBytes: 512}); err != nil {
			t.Fatal(err)
		}
		if err := reopened.Ingest(context.Background(), liveFixtureUpdates(reopened)[:300]); err != nil {
			t.Fatal(err)
		}
		ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
		if err := reopened.FlushIngest(ctx2); err != nil {
			cancel2()
			t.Fatal(err)
		}
		cancel2()
		// Set-union ingest and idempotent min/max bounds make the recovery
		// converge exactly (reach answers never read the mean-speed
		// accumulators, the one statistic replay may double-count).
		checkOracle(t, fullAnswer, serial(reopened), reqs)
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
		// The session appended fresh segments and may have truncated the
		// corrupt one; drop everything and restore the pristine set for
		// the next trial.
		for _, p := range walSegmentFiles(t, dir) {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
		restore()
	}
}
