package stindex

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"streach/internal/roadnet"
	"streach/internal/storage"
	"streach/internal/traj"
)

// Live delta layer (DESIGN.md §13).
//
// The base index is immutable after Build/LoadIndex: time lists live as
// blobs in the page store and the handle table locates them. Ingest
// appends land in an in-memory delta layer instead — per dirty
// (segment, slot) key, a day→taxi-bitset map — and reads merge base and
// delta on the fly. Compaction folds dirty keys back into freshly
// encoded blobs (the file is append-only, so old handles stay valid for
// in-flight readers) and atomically installs a new handle table, which
// bumps the index epoch.
//
// Concurrency discipline:
//
//   - handles is an atomic pointer to an immutable table of immutable
//     per-slot rows; readers load it without locking. An install swaps
//     in a fresh top level that shares every row it did not change.
//   - the delta map is guarded by mu, and so is the dirty bitmap: bit
//     seg of dirty[slot] is set exactly while entries holds the key
//     (slot, seg). An append sets it when it creates the entry; a
//     compaction clears it when it deletes the entry, and only after it
//     has stored the table that folds it. Readers load the bit without
//     locking and the handle table after it, so a clean bit proves the
//     table they read holds every fold of the key (Matcher.matchKey
//     spells the argument out): a clean key — nearly every key, even
//     under live ingest — is read with two atomic loads and no lock.
//   - a dirty key is read as before: the base blob is decoded OUTSIDE
//     the lock, then under RLock the reader (a) re-checks the handle it
//     decoded is still installed — if compaction swapped the table the
//     read retries — and (b) merges the delta. Appends and the
//     compaction install take the write lock.
//   - a decoded-list cache fill (readMerged) always takes RLock, clean
//     key or not: a cached value must be the CURRENT merge of the
//     handle table and delta map. A reader publishes it with no append
//     in flight, every append refreshes resident keys inside its
//     critical section (copy-on-write — never by mutating a published
//     list, which readers may still hold), and the install leaves
//     cached merges valid by construction (old base ∪ delta == new
//     base ∪ remaining delta). A base-only publish made outside the
//     lock could land after an append that created the key's entry;
//     that append refreshed only resident keys, so the cache would pin
//     a list without it and later appends would OR their bits into the
//     stale list. Refresh-instead-of-invalidate is what keeps merged
//     reads near base-read cost under live write load: at thousands of
//     appends/second, invalidation would evict keys faster than queries
//     re-warm them and every read would pay a cold blob decode.
//   - per-entry seq numbers let compaction clear only entries unchanged
//     since its snapshot; appends that raced the fold stay pending and
//     re-fold next time (set-union is idempotent, so nothing is lost or
//     double-counted in the bitsets).
//
// dataVersion increments on every append batch and every install; epoch
// increments only on install. The facade's plan store keys on the
// version so a shared plan never outlives the data it was computed from.
type liveState struct {
	epoch   atomic.Uint64
	version atomic.Uint64
	handles atomic.Pointer[handleTable]

	mu      sync.RWMutex
	entries map[int]*deltaEntry
	// dirty[slot] marks the segments of slot that have a delta entry,
	// one bit each; nil until the slot's first one, as handleTable rows
	// are (one flat bitmap over every slot would be 151 MB at the
	// 2^22-segment cap). Written under mu only, read without it
	// (isDirty).
	dirty []atomic.Pointer[dirtyRow]

	pending     atomic.Int64 // delta observations not yet compacted
	appended    atomic.Int64 // cumulative accepted observations
	compactions atomic.Uint64
	lastPauseNS atomic.Int64
	lastKeys    atomic.Int64

	// compactMu serialises compactions (and, at the facade layer, the
	// durable re-save that follows one).
	compactMu sync.Mutex
}

// deltaEntry is the pending delta for one (segment, slot) key.
type deltaEntry struct {
	seq  uint64           // bumped on every mutation; compaction clears only unchanged entries
	obs  int64            // distinct (day, taxi) bits held
	days map[int][]uint64 // day -> taxi bitset
}

// handleTable locates the time-list blobs: one row per slot, row[seg]
// the handle of (slot, seg). A slot with no list at all has a nil row —
// most of a day, for a fleet that works a shift — so the table costs 16
// bytes per (slot, segment) only in the slots that carry traffic. Tables
// and their rows are immutable once installed: a compaction installs a
// new top level and copies only the rows of the slots it folds keys
// into, so successive tables share every other row.
type handleTable [][]storage.BlobHandle

// at returns the handle of (slot, seg), zero when the pair has no list.
func (t handleTable) at(slot, seg int) storage.BlobHandle {
	if row := t[slot]; row != nil {
		return row[seg]
	}
	return storage.BlobHandle{}
}

// set records h for (slot, seg) in a table still being assembled,
// allocating the slot's row at its first list.
func (t handleTable) set(slot, seg, numSegments int, h storage.BlobHandle) {
	if t[slot] == nil {
		if h.IsZero() {
			return
		}
		t[slot] = make([]storage.BlobHandle, numSegments)
	}
	t[slot][seg] = h
}

// dirtyRow is one slot's dirty bits, bit seg for segment seg.
type dirtyRow []atomic.Uint64

func newLiveState(handles handleTable) *liveState {
	lv := &liveState{entries: make(map[int]*deltaEntry), dirty: make([]atomic.Pointer[dirtyRow], len(handles))}
	lv.handles.Store(&handles)
	return lv
}

// isDirty reports whether (slot, seg) has a pending delta entry. It
// takes no lock; see Matcher.matchKey for what a clean answer proves.
func (lv *liveState) isDirty(slot, seg int) bool {
	row := lv.dirty[slot].Load()
	return row != nil && (*row)[seg>>6].Load()&(1<<(uint(seg)&63)) != 0
}

// setDirty sets or clears the dirty bit of (slot, seg), allocating the
// slot's row at its first dirty key. The caller holds mu for writing,
// so the load-modify-store on a word shared with other keys is safe.
func (lv *liveState) setDirty(slot, seg, numSegments int, dirty bool) {
	row := lv.dirty[slot].Load()
	if row == nil {
		if !dirty {
			return
		}
		r := make(dirtyRow, (numSegments+63)>>6)
		row = &r
		lv.dirty[slot].Store(row)
	}
	w, bit := &(*row)[seg>>6], uint64(1)<<(uint(seg)&63)
	if dirty {
		w.Store(w.Load() | bit)
	} else {
		w.Store(w.Load() &^ bit)
	}
}

// liveHandles returns the currently installed handle table.
func (x *Index) liveHandles() handleTable { return *x.live.handles.Load() }

// DeltaObs is one ingested observation: taxi was on seg during slot on
// day. The ingest layer expands a position report into one DeltaObs per
// overlapped slot, mirroring how Build expands visits.
type DeltaObs struct {
	Seg  roadnet.SegmentID
	Slot int
	Day  traj.Day
	Taxi traj.TaxiID
}

// Epoch returns the index epoch, bumped once per compaction install.
func (x *Index) Epoch() uint64 { return x.live.epoch.Load() }

// DataVersion returns the data version, bumped on every append batch and
// every compaction install. Anything caching derived results across
// requests must fold this into its key.
func (x *Index) DataVersion() uint64 { return x.live.version.Load() }

// DeltaStats snapshots the live-layer counters.
type DeltaStats struct {
	DirtyKeys        int   // (segment, slot) keys pending compaction
	PendingObs       int64 // delta observations not yet compacted
	AppendedObs      int64 // cumulative observations accepted
	Epoch            uint64
	DataVersion      uint64
	Compactions      uint64
	LastCompactKeys  int64
	LastCompactPause time.Duration
}

// DeltaStats snapshots the live delta layer.
func (x *Index) DeltaStats() DeltaStats {
	lv := x.live
	lv.mu.RLock()
	dirty := len(lv.entries)
	lv.mu.RUnlock()
	return DeltaStats{
		DirtyKeys:        dirty,
		PendingObs:       lv.pending.Load(),
		AppendedObs:      lv.appended.Load(),
		Epoch:            lv.epoch.Load(),
		DataVersion:      lv.version.Load(),
		Compactions:      lv.compactions.Load(),
		LastCompactKeys:  lv.lastKeys.Load(),
		LastCompactPause: time.Duration(lv.lastPauseNS.Load()),
	}
}

// AppendDelta applies a batch of observations to the delta layer. The
// whole batch is validated first — the same bounds Build enforces, plus
// day within the dataset's day range so that merged answers stay
// bit-identical to an offline rebuild over the union — and then applied
// atomically with respect to readers. Touched decoded-list cache keys
// are refreshed copy-on-write inside the critical section, so resident
// merges stay both warm and exact under sustained write load.
func (x *Index) AppendDelta(obs []DeltaObs) error {
	n := x.net.NumSegments()
	for _, o := range obs {
		if o.Seg < 0 || int(o.Seg) >= n {
			return fmt.Errorf("stindex: delta segment %d out of range [0,%d)", o.Seg, n)
		}
		if o.Slot < 0 || o.Slot >= x.numSlots {
			return fmt.Errorf("stindex: delta slot %d out of range [0,%d)", o.Slot, x.numSlots)
		}
		if o.Day < 0 || int(o.Day) >= x.days {
			return fmt.Errorf("stindex: delta day %d out of range [0,%d)", o.Day, x.days)
		}
		if o.Taxi < 0 || o.Taxi >= maxTaxis {
			return fmt.Errorf("stindex: delta taxi %d out of range [0,%d)", o.Taxi, maxTaxis)
		}
	}
	if len(obs) == 0 {
		return nil
	}
	lv := x.live
	// adds collects the batch's bits per key for the cache refresh below
	// (duplicates and already-present bits are harmless: the refresh ORs).
	var adds map[int]map[int][]uint64
	if x.cache != nil {
		adds = make(map[int]map[int][]uint64)
	}
	lv.mu.Lock()
	for _, o := range obs {
		key := o.Slot*n + int(o.Seg)
		e := lv.entries[key]
		if e == nil {
			e = &deltaEntry{days: make(map[int][]uint64)}
			lv.entries[key] = e
			lv.setDirty(o.Slot, int(o.Seg), n, true)
		}
		w := e.days[int(o.Day)]
		wi, bit := int(o.Taxi)>>6, uint64(1)<<(uint(o.Taxi)&63)
		for len(w) <= wi {
			w = append(w, 0)
		}
		if w[wi]&bit == 0 {
			w[wi] |= bit
			e.obs++
			lv.pending.Add(1)
		}
		e.days[int(o.Day)] = w
		e.seq++
		if adds != nil {
			a := adds[key]
			if a == nil {
				a = make(map[int][]uint64)
				adds[key] = a
			}
			aw := a[int(o.Day)]
			for len(aw) <= wi {
				aw = append(aw, 0)
			}
			aw[wi] |= bit
			a[int(o.Day)] = aw
		}
	}
	// Refresh resident cache entries rather than invalidating them. Under
	// the write lock the cached value is exactly base ∪ delta-before-this-
	// batch (readers publish under RLock), so OR-ing the batch's bits into
	// a fresh copy keeps it exact; absent keys stay absent so write-only
	// traffic cannot flush read-hot entries.
	for key, a := range adds {
		if cached, ok := x.cache.peek(key); ok {
			x.cache.put(key, mergeDeltaBits(cached, a))
		}
	}
	lv.appended.Add(int64(len(obs)))
	lv.version.Add(1)
	lv.mu.Unlock()
	return nil
}

// readMerged is the slow path behind a decoded-list cache miss: decode
// the base blob outside the lock, then merge the pending delta (if any)
// under RLock and publish the result to the cache. If a compaction
// installed a new handle table between the unlocked decode and the
// locked merge, the read retries on the new table — the old merge could
// otherwise pair a stale base with an already-cleared delta — and r
// drops its page memo, which may predate the new table's blobs.
func (x *Index) readMerged(key int, seg roadnet.SegmentID, slot int, r *tableReader) (*TimeListBits, error) {
	lv := x.live
	for {
		h := r.handles().at(slot, int(seg))
		base := emptyBits
		if !h.IsZero() {
			var err error
			if base, err = x.decodeHandle(h, r.reader.Read, seg, slot); err != nil {
				return nil, err
			}
		}
		lv.mu.RLock()
		if lv.handles.Load().at(slot, int(seg)) != h {
			lv.mu.RUnlock()
			continue
		}
		merged := base
		if e := lv.entries[key]; e != nil {
			merged = mergeDeltaBits(base, e.days)
		}
		if x.cache != nil && merged != emptyBits {
			x.cache.put(key, merged)
		}
		lv.mu.RUnlock()
		return merged, nil
	}
}

// mergeDeltaBits unions a base time list with a delta day map into a
// fresh TimeListBits. Day slices present only in the base are aliased
// (the base is immutable); days touched by the delta are copied, because
// the delta's words keep mutating under later appends.
func mergeDeltaBits(base *TimeListBits, days map[int][]uint64) *TimeListBits {
	if len(days) == 0 {
		return base
	}
	maxWord := len(base.DayMask) - 1
	for d := range days {
		if w := d >> 6; w > maxWord {
			maxWord = w
		}
	}
	out := &TimeListBits{DayMask: make([]uint64, maxWord+1)}
	copy(out.DayMask, base.DayMask)
	for d := range days {
		out.DayMask[d>>6] |= 1 << (uint(d) & 63)
	}
	baseAt := make(map[int]int, len(base.Days))
	for i, d := range base.Days {
		baseAt[int(d)] = i
	}
	for wi, w := range out.DayMask {
		for w != 0 {
			d := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			var merged []uint64
			bi, inBase := baseAt[d]
			dw, inDelta := days[d]
			switch {
			case inBase && inDelta:
				bw := base.Bits[bi]
				nw := len(bw)
				if len(dw) > nw {
					nw = len(dw)
				}
				merged = make([]uint64, nw)
				copy(merged, bw)
				for i, v := range dw {
					merged[i] |= v
				}
			case inDelta:
				merged = append([]uint64(nil), dw...)
			default:
				merged = base.Bits[bi]
			}
			out.Days = append(out.Days, traj.Day(d))
			out.Bits = append(out.Bits, merged)
		}
	}
	return out
}

// CompactStats reports one compaction.
type CompactStats struct {
	Keys         int           // dirty keys folded
	Remaining    int           // dirty keys rolled to the next cycle (budgeted folds)
	Observations int64         // delta observations folded
	Bytes        int64         // blob bytes appended
	Pause        time.Duration // handle-table install critical section
	Epoch        uint64        // epoch after the install
}

// snapEntry is a compaction's private copy of one pending delta entry.
type snapEntry struct {
	seq  uint64
	obs  int64
	days map[int][]uint64
}

// snapshot copies the delta entries one compaction cycle folds — all of
// them, or the maxKeys deepest (ties broken by key for determinism)
// when maxKeys > 0 — and returns their keys in ascending order. The
// keys are chosen first, which takes each entry's depth and nothing
// else, and only the chosen entries' day maps are copied: a budgeted
// cycle over a deep backlog copies maxKeys entries, not the backlog.
// The caller holds compactMu: the lock on the entries is dropped for
// the sort in between, and only a compaction removes entries, so every
// chosen key is still there afterwards.
func (lv *liveState) snapshot(maxKeys int) ([]int, map[int]snapEntry) {
	type keyDepth struct {
		key int
		obs int64
	}
	lv.mu.RLock()
	picked := make([]keyDepth, 0, len(lv.entries))
	for key, e := range lv.entries {
		picked = append(picked, keyDepth{key, e.obs})
	}
	lv.mu.RUnlock()
	if maxKeys > 0 && len(picked) > maxKeys {
		// Hottest first: deep entries cost the most to merge at read time
		// and hold the most pending memory, so folding them buys the most
		// per unit of install pause.
		slices.SortFunc(picked, func(a, b keyDepth) int {
			if a.obs != b.obs {
				return cmp.Compare(b.obs, a.obs)
			}
			return cmp.Compare(a.key, b.key)
		})
		picked = picked[:maxKeys]
	}
	keys := make([]int, len(picked))
	snaps := make(map[int]snapEntry, len(picked))
	lv.mu.RLock()
	for i, p := range picked {
		e := lv.entries[p.key]
		cp := make(map[int][]uint64, len(e.days))
		for d, w := range e.days {
			cp[d] = slices.Clone(w)
		}
		keys[i] = p.key
		snaps[p.key] = snapEntry{seq: e.seq, obs: e.obs, days: cp}
	}
	lv.mu.RUnlock()
	slices.Sort(keys)
	return keys, snaps
}

// CompactDeltasBudget folds the pending delta layer into freshly encoded
// blobs and installs a new handle table (a new index epoch). The fold
// runs off the hot path: blob appends go to the append-only file while
// readers keep answering from the old handles, and only the table swap
// plus the seq-checked delta clear happen under the write lock — that
// critical section is the reported pause. Entries appended to during
// the fold survive the clear and re-fold next time.
//
// maxKeys > 0 bounds the cycle: only the maxKeys hottest dirty keys (by
// delta depth, ties broken by key for determinism) are folded and the
// rest roll to the next epoch, which is what keeps the install pause —
// proportional to the folded key count — flat under sustained write
// load. CompactStats.Remaining reports the rolled-over keys.
//
// The re-encode goes through the same packed writer as Build, so a
// post-compaction blob is byte-identical to what an offline rebuild
// over the union of base and ingested trajectories would have written
// for that (segment, slot).
func (x *Index) CompactDeltasBudget(maxKeys int) (CompactStats, error) {
	lv := x.live
	lv.compactMu.Lock()
	defer lv.compactMu.Unlock()

	keys, snaps := lv.snapshot(maxKeys)
	if len(keys) == 0 {
		return CompactStats{Epoch: lv.epoch.Load()}, nil
	}

	// The new table shares every row the fold leaves alone: the top
	// level is copied, and a slot's row only when the first of its keys
	// comes up (keys ascend, so a slot's keys are consecutive).
	old := *lv.handles.Load()
	next := slices.Clone(old)
	reader := x.blob.NewReader()
	n := x.net.NumSegments()
	var appendedBytes, obsFolded int64
	copied := -1
	for _, key := range keys {
		s := snaps[key]
		slot, seg := key/n, key%n
		base := emptyBits
		if h := old.at(slot, seg); !h.IsZero() {
			var err error
			if base, err = x.decodeHandle(h, reader.Read, roadnet.SegmentID(seg), slot); err != nil {
				return CompactStats{}, fmt.Errorf("stindex: compact read: %w", err)
			}
		}
		run := tuplesFromBits(slot, seg, mergeDeltaBits(base, s.days))
		blob := encodePackedRun(run)
		h, err := x.blob.Append(blob)
		if err != nil {
			return CompactStats{}, fmt.Errorf("stindex: compact write: %w", err)
		}
		if slot != copied {
			next[slot] = make([]storage.BlobHandle, n)
			copy(next[slot], old[slot])
			copied = slot
		}
		next[slot][seg] = h
		appendedBytes += int64(len(blob))
		obsFolded += s.obs
	}

	began := time.Now()
	lv.mu.Lock()
	// The table goes in before any bit is cleared: a reader that sees a
	// clear bit must find the fold in the table it loads next.
	lv.handles.Store(&next)
	for key, s := range snaps {
		if e := lv.entries[key]; e != nil && e.seq == s.seq {
			lv.pending.Add(-e.obs)
			delete(lv.entries, key)
			lv.setDirty(key/n, key%n, n, false)
		}
	}
	lv.epoch.Add(1)
	lv.version.Add(1)
	lv.mu.Unlock()
	pause := time.Since(began)

	lv.compactions.Add(1)
	lv.lastPauseNS.Store(int64(pause))
	lv.lastKeys.Store(int64(len(keys)))
	lv.mu.RLock()
	remaining := len(lv.entries)
	lv.mu.RUnlock()
	return CompactStats{
		Keys:         len(keys),
		Remaining:    remaining,
		Observations: obsFolded,
		Bytes:        appendedBytes,
		Pause:        pause,
		Epoch:        lv.epoch.Load(),
	}, nil
}

// PendingDelta snapshots every observation still pending in the delta
// layer as replayable DeltaObs. A durable budgeted compaction writes
// this snapshot to the WAL (a "carry" record) before retiring the
// segments the folded-and-persisted keys came from: the rolled-over
// keys stay crash-durable without keeping every old segment alive.
func (x *Index) PendingDelta() []DeltaObs {
	lv := x.live
	n := x.net.NumSegments()
	lv.mu.RLock()
	defer lv.mu.RUnlock()
	var out []DeltaObs
	for key, e := range lv.entries {
		slot, seg := key/n, key%n
		for d, words := range e.days {
			for wi, w := range words {
				for w != 0 {
					taxi := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					out = append(out, DeltaObs{
						Seg:  roadnet.SegmentID(seg),
						Slot: slot,
						Day:  traj.Day(d),
						Taxi: traj.TaxiID(taxi),
					})
				}
			}
		}
	}
	return out
}

// tuplesFromBits rebuilds this (slot, seg) content as a sorted run of
// packed tuples, so compaction writes it with the packed writer Build
// uses, byte for byte as Build would.
func tuplesFromBits(slot, seg int, b *TimeListBits) []uint64 {
	total := 0
	for _, words := range b.Bits {
		for _, w := range words {
			total += bits.OnesCount64(w)
		}
	}
	run := make([]uint64, 0, total)
	for i, d := range b.Days {
		for wi, w := range b.Bits[i] {
			for w != 0 {
				taxi := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				run = append(run, packTuple(slot, seg, int(d), taxi))
			}
		}
	}
	return run
}
