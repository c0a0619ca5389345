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
// form (TimeListsRange, behind the decoded-list LRU of cache.go) serves
// the handful of start and destination lists a query turns into probe
// sets, and tools. See DESIGN.md §2–3.
package stindex

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
//
// Construction is a counting sort: one pass over the visits counts the
// (segment, day, taxi) tuples of each slot, a second scatters them into
// one exactly sized array, slot by slot. Slots are independent, so
// GOMAXPROCS workers split each slot into its segment runs and encode
// them while this goroutine appends the encoded slots to the blob file in
// slot order. The lists land in (slot, segment) order, the order of one
// global sort of the tuples, so every handle and every page byte is what
// such a sort would write.
func Build(net *roadnet.Network, ds *traj.Dataset, cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	if net.NumSegments() == 0 {
		return nil, fmt.Errorf("stindex: empty network")
	}
	if net.NumSegments() >= 1<<22 {
		return nil, fmt.Errorf("stindex: network too large (%d segments, max %d)", net.NumSegments(), 1<<22-1)
	}
	if ds.Days <= 0 {
		return nil, fmt.Errorf("stindex: dataset has no days")
	}
	if ds.Days >= maxDays {
		return nil, fmt.Errorf("stindex: too many days (%d, max %d)", ds.Days, maxDays-1)
	}
	if 86400%cfg.SlotSeconds != 0 {
		return nil, fmt.Errorf("stindex: slot seconds %d must divide 86400", cfg.SlotSeconds)
	}
	numSlots := 86400 / cfg.SlotSeconds
	tuples, starts, err := bucketTuples(net.NumSegments(), ds, cfg.SlotSeconds, numSlots)
	if err != nil {
		return nil, err
	}
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
	if err := idx.writeLists(tuples, starts, handles); err != nil {
		return nil, err
	}
	// Construction happens offline: flush, drop the cache so queries start
	// cold, and zero the I/O counters.
	if err := pool.Invalidate(); err != nil {
		return nil, err
	}
	pool.ResetStats()
	return idx, nil
}

// bucketTuples checks every trajectory (Dataset.CheckTrajectory), then
// packs each visit's seg<<24 | day<<15 | taxi tuple once per slot it
// overlaps into one array grouped by slot: slot s holds
// tuples[starts[s]:starts[s+1]]. A taxi, day or segment out of range
// would overwrite its neighbour's bits or index past a handle row.
func bucketTuples(numSegments int, ds *traj.Dataset, slotSec, numSlots int) (tuples []uint64, starts []int, err error) {
	slotMs := int32(slotSec * 1000)
	starts = make([]int, numSlots+1)
	for i := range ds.Matched {
		if err := ds.CheckTrajectory(i, numSegments); err != nil {
			return nil, nil, fmt.Errorf("stindex: %w", err)
		}
		for _, v := range ds.Matched[i].Visits {
			lo, hi := slotSpan(v, slotMs, numSlots)
			for s := lo; s <= hi; s++ {
				starts[s+1]++
			}
		}
	}
	for s := 1; s <= numSlots; s++ {
		starts[s] += starts[s-1]
	}
	tuples = make([]uint64, starts[numSlots])
	next := slices.Clone(starts[:numSlots])
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		entry := uint64(mt.Day)<<15 | uint64(mt.Taxi)
		for _, v := range mt.Visits {
			t := uint64(v.Segment)<<24 | entry
			lo, hi := slotSpan(v, slotMs, numSlots)
			for s := lo; s <= hi; s++ {
				tuples[next[s]] = t
				next[s]++
			}
		}
	}
	return tuples, starts, nil
}

// slotSpan returns the slots a visit overlaps, clipped to the day: a
// visit that runs past midnight lists only its slots before it. slotMs
// is Δt in milliseconds: one 32-bit division per end truncates exactly
// as dividing by 1000 and then by Δt does, at a fraction of the cost.
func slotSpan(v traj.Visit, slotMs int32, numSlots int) (lo, hi int) {
	return max(int(v.EnterMs/slotMs), 0), min(int(v.ExitMs/slotMs), numSlots-1)
}

// slotLists is one slot's time lists, encoded: the blobs of segs
// (ascending) back to back in buf, segs[i]'s ending at ends[i].
type slotLists struct {
	buf  []byte
	segs []int
	ends []int
}

// writeLists encodes every slot's lists on GOMAXPROCS workers and
// appends them in slot order, recording each handle. The slotLists
// buffers, two per worker, circulate between the workers and the
// appender, so at most that many slots are encoded and not yet appended.
func (x *Index) writeLists(tuples []uint64, starts []int, handles handleTable) error {
	numSlots, n := len(starts)-1, x.net.NumSegments()
	workers := min(runtime.GOMAXPROCS(0), numSlots)
	free := make(chan *slotLists, 2*workers) // one place per buffer
	for i := 0; i < cap(free); i++ {
		free <- &slotLists{}
	}
	// Slots are taken in order, each with a buffer in hand, so the slots
	// in flight are consecutive and fewer than there are buffers: slot s
	// is handed over in encoded[s%len(encoded)], which the appender has
	// emptied by the time a worker can take slot s+len(encoded).
	encoded := make([]chan *slotLists, cap(free))
	for i := range encoded {
		encoded[i] = make(chan *slotLists, 1)
	}
	stop := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc runScratch
			for {
				var sl *slotLists
				select {
				case sl = <-free:
				case <-stop:
					return
				}
				s := int(next.Add(1) - 1)
				if s >= numSlots {
					return
				}
				sc.encodeSlot(sl, tuples[starts[s]:starts[s+1]], n)
				select {
				case encoded[s%len(encoded)] <- sl:
				case <-stop:
					return
				}
			}
		}()
	}
	var err error
	for s := 0; s < numSlots && err == nil; s++ {
		sl := <-encoded[s%len(encoded)]
		err = x.appendSlot(s, sl, handles)
		free <- sl
	}
	close(stop)
	wg.Wait()
	return err
}

// appendSlot writes one slot's blobs with a single append and records
// each blob's handle: back to back in the file as in buf, so each is
// where appending it alone would have put it.
func (x *Index) appendSlot(slot int, sl *slotLists, handles handleTable) error {
	if len(sl.segs) == 0 {
		return nil
	}
	h, err := x.blob.Append(sl.buf)
	if err != nil {
		return fmt.Errorf("stindex: write time lists of slot %d: %w", slot, err)
	}
	start := 0
	for i, seg := range sl.segs {
		handles.set(slot, seg, x.net.NumSegments(), storage.BlobHandle{Offset: h.Offset + int64(start), Length: int32(sl.ends[i] - start)})
		start = sl.ends[i]
	}
	return nil
}

// runScratch is one worker's reusable counting-sort state.
type runScratch struct {
	ends    []int32  // per segment: the end of its run in entries
	entries []uint32 // the slot's 24-bit entries, grouped by segment
}

// encodeSlot splits one slot's tuples into (slot, segment) runs by a
// counting sort on the segment, then sorts each run's day<<15 | taxi
// entries and encodes it in the packed format, in segment order.
func (sc *runScratch) encodeSlot(sl *slotLists, tuples []uint64, numSegments int) {
	sl.buf, sl.segs, sl.ends = sl.buf[:0], sl.segs[:0], sl.ends[:0]
	if len(tuples) == 0 {
		return
	}
	if len(sc.ends) != numSegments {
		sc.ends = make([]int32, numSegments)
	}
	ends := sc.ends
	clear(ends)
	for _, t := range tuples {
		ends[t>>24]++
	}
	var sum int32
	for seg, c := range ends {
		ends[seg] = sum // the run's start until the scatter moves it
		sum += c
	}
	sc.entries = slices.Grow(sc.entries[:0], len(tuples))[:len(tuples)]
	for _, t := range tuples {
		seg := t >> 24
		sc.entries[ends[seg]] = uint32(t & (1<<24 - 1))
		ends[seg]++
	}
	var start int32
	for seg, end := range ends {
		if end == start {
			continue
		}
		run := sc.entries[start:end]
		slices.Sort(run)
		sl.buf = appendPackedRun(sl.buf, run)
		sl.segs = append(sl.segs, seg)
		sl.ends = append(sl.ends, len(sl.buf))
		start = end
	}
}

// packTuple packs (slot, segment, day, taxi) so that numeric order equals
// (slot, segment, day, taxi) lexicographic order.
func packTuple(slot, seg, day, taxi int) uint64 {
	return uint64(slot)<<46 | uint64(seg)<<24 | uint64(day)<<15 | uint64(taxi)
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

// SnapLocation finds the road segment a query location lies on, using the
// spatial R-tree (thesis: "identify the start road segment r0 in the
// R-tree from ST-Index").
func (x *Index) SnapLocation(p geo.Point) (roadnet.SegmentID, bool) {
	id, _, _, ok := x.net.SnapPoint(p)
	return id, ok
}

// emptyBits is the shared decode of an absent time list.
var emptyBits = &TimeListBits{}

// TimeListsRange reads the time lists of (segment, lo..hi inclusive) in
// one batch, appending to dst and returning it: dst[i] covers slot lo+i
// and is never nil. Cache misses share a single batch blob reader, so
// every buffer-pool page the window touches is fetched once per call
// instead of once per slot. The lists are shared (cached); callers must
// not modify them. The forward probe reads each source's start list
// through it and the reverse probe its destination's window; candidates
// go through a Matcher instead.
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
	var reader tableReader // made at the first cache miss
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
		if reader.x == nil {
			reader = x.newTableReader()
		}
		b, err := x.readMerged(key, seg, s, &reader)
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
