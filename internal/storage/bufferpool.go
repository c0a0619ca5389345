package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// IOStats counts page-level activity through a BufferPool. Reads are the
// physical reads the paper's evaluation charges queries for; Hits are
// requests served from memory.
type IOStats struct {
	Reads     int64 // physical page reads from the backend
	Writes    int64 // physical page writes to the backend
	Hits      int64 // page accesses served from the pool
	Misses    int64 // page accesses that had to read from the backend
	Evictions int64 // pages dropped (after flush when dirty)
}

// Sub returns the delta s - o, used to attribute I/O to one query.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{
		Reads:     s.Reads - o.Reads,
		Writes:    s.Writes - o.Writes,
		Hits:      s.Hits - o.Hits,
		Misses:    s.Misses - o.Misses,
		Evictions: s.Evictions - o.Evictions,
	}
}

// String implements fmt.Stringer.
func (s IOStats) String() string {
	return fmt.Sprintf("reads=%d writes=%d hits=%d misses=%d evictions=%d",
		s.Reads, s.Writes, s.Hits, s.Misses, s.Evictions)
}

type frame struct {
	id    PageID
	data  []byte
	dirty bool
}

// BufferPool is an LRU page cache over a Store. It is safe for concurrent
// use. Capacity is in pages.
type BufferPool struct {
	mu       sync.Mutex
	store    Store
	capacity int
	lru      *list.List               // of *frame, front = most recent
	frames   map[PageID]*list.Element // page -> lru element
	stats    IOStats
}

// NewBufferPool wraps store with an LRU pool of the given page capacity.
func NewBufferPool(store Store, capacity int) (*BufferPool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("storage: buffer pool capacity must be >= 1, got %d", capacity)
	}
	return &BufferPool{
		store:    store,
		capacity: capacity,
		lru:      list.New(),
		frames:   map[PageID]*list.Element{},
	}, nil
}

// Allocate creates a new zeroed page in the backend.
func (bp *BufferPool) Allocate() (PageID, error) { return bp.store.Allocate() }

// NumPages reports the backend's allocated page count.
func (bp *BufferPool) NumPages() int64 { return bp.store.NumPages() }

// Stats returns a snapshot of the pool's I/O counters.
func (bp *BufferPool) Stats() IOStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the I/O counters (pool contents are untouched).
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = IOStats{}
}

// ViewPage returns the pooled frame's bytes without copying, reading
// through the cache on a miss: the pool's one read. The view is
// read-only and aliases pool memory: callers must not modify it.
// PatchPage is safe beside views as long as nobody reads the patched
// bytes through a view taken earlier, which holds for the append-only
// time-list blob file, whose written bytes never change.
func (bp *BufferPool) ViewPage(id PageID) ([]byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, err := bp.frameOf(id)
	if err != nil {
		return nil, err
	}
	return fr.data, nil
}

// ReadPageInto copies the page's current contents into buf (PageSize
// bytes) and leaves the cache as it was: a resident frame is copied, so
// unflushed writes are seen; any other page is read straight from the
// backend and not admitted. For walks over the whole store — checksums,
// copies — which through ViewPage would allocate a frame per page and
// evict the queries' working set. Such a walk is not query I/O: it moves
// no counter.
func (bp *BufferPool) ReadPageInto(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: ReadPageInto needs exactly %d bytes, got %d", PageSize, len(buf))
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if el, ok := bp.frames[id]; ok {
		copy(buf, el.Value.(*frame).data)
		return nil
	}
	return bp.store.ReadPage(id, buf)
}

// Checksum computes the CRC-32C of the first limit bytes of the store,
// unflushed writes included — what a flush would persist. It walks
// through one page buffer with ReadPageInto, so it admits nothing to the
// pool: the ST-Index checks its page store with it at every open and
// every durable compaction, over every page there is.
func (bp *BufferPool) Checksum(limit int64) (uint32, error) {
	h := NewChecksum()
	remain := limit
	n := bp.NumPages()
	buf := make([]byte, PageSize)
	for id := PageID(0); int64(id) < n && remain > 0; id++ {
		if err := bp.ReadPageInto(id, buf); err != nil {
			return 0, fmt.Errorf("storage: checksum page %d: %w", id, err)
		}
		page := buf[:min(remain, PageSize)]
		h.Write(page)
		remain -= int64(len(page))
	}
	if remain > 0 {
		return 0, fmt.Errorf("storage: store holds %d bytes, checksum needs %d", n*PageSize, limit)
	}
	return h.Sum32(), nil
}

// frameOf returns the resident frame, reading through the cache on a
// miss. Caller holds bp.mu.
func (bp *BufferPool) frameOf(id PageID) (*frame, error) {
	if el, ok := bp.frames[id]; ok {
		bp.stats.Hits++
		bp.lru.MoveToFront(el)
		return el.Value.(*frame), nil
	}
	bp.stats.Misses++
	bp.stats.Reads++
	fr := &frame{id: id, data: make([]byte, PageSize)}
	if err := bp.store.ReadPage(id, fr.data); err != nil {
		return nil, err
	}
	if err := bp.admit(fr); err != nil {
		return nil, err
	}
	return fr, nil
}

// PatchPage overwrites bytes [off, off+len(data)) of the page through
// the cache (write-back) and leaves every other byte of the frame
// untouched. That is what lets an append-only writer share frames with
// ViewPage readers: the bytes of blobs already written are never stored
// to again, so a reader walking an older blob in place does not race an
// append landing later in the same page.
func (bp *BufferPool) PatchPage(id PageID, off int, data []byte) error {
	if off < 0 || off+len(data) > PageSize {
		return fmt.Errorf("storage: PatchPage range [%d, %d) leaves the %d-byte page", off, off+len(data), PageSize)
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, err := bp.frameOf(id)
	if err != nil {
		return err
	}
	copy(fr.data[off:], data)
	fr.dirty = true
	return nil
}

// admit inserts fr, evicting the LRU frame when over capacity.
// Caller holds bp.mu.
func (bp *BufferPool) admit(fr *frame) error {
	bp.frames[fr.id] = bp.lru.PushFront(fr)
	for bp.lru.Len() > bp.capacity {
		tail := bp.lru.Back()
		victim := tail.Value.(*frame)
		if victim.dirty {
			bp.stats.Writes++
			if err := bp.store.WritePage(victim.id, victim.data); err != nil {
				return fmt.Errorf("storage: evict page %d: %w", victim.id, err)
			}
		}
		bp.stats.Evictions++
		bp.lru.Remove(tail)
		delete(bp.frames, victim.id)
	}
	return nil
}

// Flush writes every dirty page back to the backend, keeping the cache.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for el := bp.lru.Front(); el != nil; el = el.Next() {
		fr := el.Value.(*frame)
		if !fr.dirty {
			continue
		}
		bp.stats.Writes++
		if err := bp.store.WritePage(fr.id, fr.data); err != nil {
			return fmt.Errorf("storage: flush page %d: %w", fr.id, err)
		}
		fr.dirty = false
	}
	return nil
}

// Sync flushes every dirty page and then fsyncs the backing store (when
// it has a durability boundary): the persistence point a durable
// compaction needs before installing a meta that references the pages.
func (bp *BufferPool) Sync() error {
	if err := bp.Flush(); err != nil {
		return err
	}
	if s, ok := bp.store.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Invalidate drops every cached page (flushing dirty ones first). Used by
// experiments to measure cold-cache behaviour.
func (bp *BufferPool) Invalidate() error {
	if err := bp.Flush(); err != nil {
		return err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.lru.Init()
	bp.frames = map[PageID]*list.Element{}
	return nil
}

// Len returns the number of cached pages.
func (bp *BufferPool) Len() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.lru.Len()
}

// Close flushes and closes the backend store.
func (bp *BufferPool) Close() error {
	if err := bp.Flush(); err != nil {
		return err
	}
	return bp.store.Close()
}
