// Package stindex implements the Spatio-Temporal Index (thesis §3.2.1).
//
// The ST-Index has three levels:
//
//  1. a temporal level over fixed Δt time slots of the day: the slots are
//     uniform, so a time's slot is its second of the day divided by Δt,
//     and the level itself is the per-slot row of the handle table;
//  2. a spatial R-tree over the re-segmented road network — the network is
//     static, so a single R-tree is shared by every temporal leaf, exactly
//     as the thesis observes;
//  3. per-(segment, slot) *time lists*: for each date in the dataset, the
//     IDs of the trajectories that traversed the segment during the slot.
//
// Time lists live on disk as packed blobs (bits.go) behind a buffer
// pool; reading one is the unit of I/O the evaluation charges queries
// for. Verification does not decode them: a Matcher (match.go) walks each
// candidate's blobs where they lie in the pooled pages. The decoded
// forms (TimeListBitsAt, TimeListsRange, behind the decoded-list LRU of
// cache.go) serve the handful of start and destination lists a query
// turns into probe sets, compaction, and tools. See DESIGN.md §2–3.
package stindex

import (
	"fmt"
	"slices"
	"time"

	"streach/internal/bitset"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/storage"
	"streach/internal/traj"
)

// Config controls index construction.
type Config struct {
	// SlotSeconds is the temporal granularity Δt (default 300 s = 5 min).
	SlotSeconds int
	// PoolPages is the buffer pool capacity in pages (default 256).
	PoolPages int
	// TimeListCache is the decoded time-list LRU capacity in entries
	// (default 8192, negative disables). The cache sits above the buffer
	// pool: repeated decoded reads of hot (segment, slot) pairs — a
	// query's start and destination lists — skip page access and blob
	// decoding. Candidate verification streams off the page and never
	// touches it.
	TimeListCache int
	// Store is the page backend; nil means a fresh in-memory store.
	Store storage.Store
}

func (c Config) withDefaults() Config {
	if c.SlotSeconds <= 0 {
		c.SlotSeconds = 300
	}
	if c.PoolPages <= 0 {
		c.PoolPages = 256
	}
	if c.TimeListCache == 0 {
		c.TimeListCache = 8192
	}
	if c.Store == nil {
		c.Store = storage.NewMemStore()
	}
	return c
}

// TimeList is the decoded per-day content of one (segment, slot) entry:
// for each day that has traffic, the sorted taxi IDs observed.
type TimeList struct {
	Days  []traj.Day
	Taxis [][]traj.TaxiID // parallel to Days
}

// TaxisOn returns the taxi IDs for a day (nil when the day has none).
func (tl *TimeList) TaxisOn(day traj.Day) []traj.TaxiID {
	for i, d := range tl.Days {
		if d == day {
			return tl.Taxis[i]
		}
	}
	return nil
}

// Index is the built ST-Index.
type Index struct {
	net      *roadnet.Network
	slotSec  int
	numSlots int
	days     int
	baseDate time.Time

	pool *storage.BufferPool
	blob *storage.BlobFile
	// live holds the installed handle table (one row per slot, row[seg]
	// locating the time list blob; see handleTable) plus the ingest
	// delta layer and epoch counters (delta.go). Shared by every Slice
	// of this index, so deltas and epoch swaps are visible to all shards
	// at once.
	live *liveState
	// cache holds decoded time lists (nil when disabled).
	cache *tlCache

	// owned, when non-nil, makes this a shard slice: time lists resolve
	// only for the owned segments and any other access is an error, so a
	// shard engine cannot silently answer from data its partition does
	// not hold. shard is the owning shard's ordinal for error messages.
	owned bitset.Set
	shard int
}

// Slice returns a shard-local view of the index that serves time lists
// only for the owned segments. The slice shares the underlying storage —
// buffer pool, blob file, decoded-list cache, R-tree — with the root
// index and every sibling slice; only ownership enforcement differs,
// which is the single-process analogue of a shard holding its own
// partition of the time lists. Close the root index, not its slices.
func (x *Index) Slice(shard int, owned bitset.Set) *Index {
	cp := *x
	cp.owned = owned
	cp.shard = shard
	return &cp
}

// checkOwned rejects reads outside a slice's partition.
func (x *Index) checkOwned(seg roadnet.SegmentID) error {
	if x.owned != nil && seg >= 0 && int(seg) < x.net.NumSegments() && !x.owned.Has(int(seg)) {
		return fmt.Errorf("stindex: segment %d is not owned by shard %d", seg, x.shard)
	}
	return nil
}

// Build constructs the ST-Index over the dataset. Every visit contributes
// its taxi ID to the time lists of each slot it overlaps.
func Build(net *roadnet.Network, ds *traj.Dataset, cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	if net.NumSegments() == 0 {
		return nil, fmt.Errorf("stindex: empty network")
	}
	if ds.Days <= 0 {
		return nil, fmt.Errorf("stindex: dataset has no days")
	}
	if 86400%cfg.SlotSeconds != 0 {
		return nil, fmt.Errorf("stindex: slot seconds %d must divide 86400", cfg.SlotSeconds)
	}
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

	// Accumulate (slot, segment, day, taxi) tuples packed into uint64s,
	// then sort and deduplicate. This keeps construction memory at ~8
	// bytes per tuple, which matters for multi-million-visit datasets.
	// Layout (high to low): slot 18b | segment 22b | day 9b | taxi 15b —
	// sorting the packed value groups tuples exactly in the order the
	// serializer needs.
	if net.NumSegments() >= 1<<22 {
		return nil, fmt.Errorf("stindex: network too large (%d segments, max %d)", net.NumSegments(), 1<<22-1)
	}
	if ds.Days >= maxDays {
		return nil, fmt.Errorf("stindex: too many days (%d, max %d)", ds.Days, maxDays-1)
	}
	var tuples []uint64
	maxTaxi := traj.TaxiID(0)
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		if mt.Taxi > maxTaxi {
			maxTaxi = mt.Taxi
		}
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
	if maxTaxi >= maxTaxis {
		return nil, fmt.Errorf("stindex: taxi ID %d too large (max %d)", maxTaxi, maxTaxis-1)
	}
	slices.Sort(tuples)

	// Serialize each (slot, segment) run to the blob file.
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
		blob := encodePackedRun(tuples[i:j])
		h, err := idx.blob.Append(blob)
		if err != nil {
			return nil, fmt.Errorf("stindex: write time list: %w", err)
		}
		handles.set(slot, seg, net.NumSegments(), h)
		i = j
	}
	// Construction happens offline: flush, drop the cache so queries start
	// cold, and zero the I/O counters.
	if err := pool.Invalidate(); err != nil {
		return nil, err
	}
	pool.ResetStats()
	return idx, nil
}

// packTuple packs (slot, segment, day, taxi) so that numeric order equals
// (slot, segment, day, taxi) lexicographic order.
func packTuple(slot, seg, day, taxi int) uint64 {
	return uint64(slot)<<46 | uint64(seg)<<24 | uint64(day)<<15 | uint64(taxi)
}

func unpackTuple(t uint64) (slot, seg, day, taxi int) {
	return int(t >> 46), int(t >> 24 & (1<<22 - 1)), int(t >> 15 & (1<<9 - 1)), int(t & (1<<15 - 1))
}

// SlotSeconds returns the temporal granularity Δt.
func (x *Index) SlotSeconds() int { return x.slotSec }

// NumSlots returns the number of slots per day.
func (x *Index) NumSlots() int { return x.numSlots }

// Days returns the number of dataset days m.
func (x *Index) Days() int { return x.days }

// BaseDate returns midnight of day 0.
func (x *Index) BaseDate() time.Time { return x.baseDate }

// Network returns the indexed road network (the shared spatial level).
func (x *Index) Network() *roadnet.Network { return x.net }

// Pool exposes the buffer pool for I/O accounting.
func (x *Index) Pool() *storage.BufferPool { return x.pool }

// DayOf maps a time to its dataset day index (may be out of range for
// times outside the dataset).
func (x *Index) DayOf(t time.Time) traj.Day {
	return traj.Day(int(t.Sub(x.baseDate).Hours()) / 24)
}

// SnapLocation finds the road segment a query location lies on, using the
// spatial R-tree (thesis: "identify the start road segment r0 in the
// R-tree from ST-Index").
func (x *Index) SnapLocation(p geo.Point) (roadnet.SegmentID, bool) {
	id, _, _, ok := x.net.SnapPoint(p)
	return id, ok
}

// emptyBits is the shared decode of an absent time list.
var emptyBits = &TimeListBits{}

// TimeListAt reads the time list for (segment, slot) from disk through
// the buffer pool (and the decoded-list cache) in the legacy sorted-ID
// representation. A TimeList with no days means no traffic.
func (x *Index) TimeListAt(seg roadnet.SegmentID, slot int) (*TimeList, error) {
	b, err := x.TimeListBitsAt(seg, slot)
	if err != nil {
		return nil, err
	}
	return b.TimeList(), nil
}

// TimeListBitsAt reads the time list for (segment, slot) in bitset form,
// through the decoded-list cache. The returned value is shared; callers
// must not modify it.
func (x *Index) TimeListBitsAt(seg roadnet.SegmentID, slot int) (*TimeListBits, error) {
	if slot < 0 || slot >= x.numSlots || seg < 0 || int(seg) >= x.net.NumSegments() {
		return emptyBits, nil
	}
	if err := x.checkOwned(seg); err != nil {
		return nil, err
	}
	if !x.hasList(slot, int(seg)) {
		return emptyBits, nil // nothing to read; keep the cache for real lists
	}
	key := slot*x.net.NumSegments() + int(seg)
	if x.cache != nil {
		if b, ok := x.cache.get(key); ok {
			return b, nil
		}
	}
	return x.readMerged(key, seg, slot, x.blob.Read)
}

// TimeListsRange reads the time lists of (segment, lo..hi inclusive) in
// one batch, appending to dst and returning it: dst[i] covers slot lo+i
// and is never nil. Cache misses share a single batch blob reader, so
// every buffer-pool page the window touches is fetched once per call
// instead of once per slot. The reverse probe folds its destination's
// window through it; candidates go through a Matcher instead.
func (x *Index) TimeListsRange(seg roadnet.SegmentID, loSlot, hiSlot int, dst []*TimeListBits) ([]*TimeListBits, error) {
	if seg < 0 || int(seg) >= x.net.NumSegments() {
		for s := loSlot; s <= hiSlot; s++ {
			dst = append(dst, emptyBits)
		}
		return dst, nil
	}
	if err := x.checkOwned(seg); err != nil {
		return nil, err
	}
	var reader *storage.BlobReader
	for s := loSlot; s <= hiSlot; s++ {
		if s < 0 || s >= x.numSlots || !x.hasList(s, int(seg)) {
			dst = append(dst, emptyBits)
			continue
		}
		key := s*x.net.NumSegments() + int(seg)
		if x.cache != nil {
			if b, ok := x.cache.get(key); ok {
				dst = append(dst, b)
				continue
			}
		}
		if reader == nil {
			reader = x.blob.NewReader()
		}
		b, err := x.readMerged(key, seg, s, reader.Read)
		if err != nil {
			return nil, err
		}
		dst = append(dst, b)
	}
	return dst, nil
}

// hasList reports whether (slot, seg) has a time list: a base blob in the
// installed table or a pending delta. The dirty bit is loaded before the
// table, the order Matcher.matchKey relies on, so false is exact: a key
// whose bit a compaction cleared is found in the table that folded it.
func (x *Index) hasList(slot, seg int) bool {
	return x.live.isDirty(slot, seg) || !x.liveHandles().at(slot, seg).IsZero()
}

// decodeHandle reads and decodes one blob via the given read function.
func (x *Index) decodeHandle(h storage.BlobHandle, read func(storage.BlobHandle) ([]byte, error), seg roadnet.SegmentID, slot int) (*TimeListBits, error) {
	if h.IsZero() {
		return emptyBits, nil
	}
	blob, err := read(h)
	if err != nil {
		return nil, fmt.Errorf("stindex: read time list seg=%d slot=%d: %w", seg, slot, err)
	}
	return decodeTimeListBits(blob)
}

// CacheStats snapshots the decoded time-list cache counters.
func (x *Index) CacheStats() CacheStats { return x.cache.stats() }

// CacheLen reports how many decoded time lists are resident.
func (x *Index) CacheLen() int { return x.cache.len() }

// Close flushes and closes the underlying storage.
func (x *Index) Close() error { return x.pool.Close() }
