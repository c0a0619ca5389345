package storage

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func fillPage(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

// readBlob reads one blob through a fresh BlobReader and copies it out
// of the reader's page memo, so the caller may hold it across reads.
func readBlob(f *BlobFile, h BlobHandle) ([]byte, error) {
	b, err := f.NewReader().Read(h)
	return bytes.Clone(b), err
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	if s.NumPages() != 0 {
		t.Fatal("fresh store should have no pages")
	}
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(id, fillPage(7)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := s.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage(7)) {
		t.Fatal("page contents corrupted")
	}
}

func TestMemStoreOutOfRange(t *testing.T) {
	s := NewMemStore()
	buf := make([]byte, PageSize)
	if err := s.ReadPage(0, buf); err == nil {
		t.Fatal("read of unallocated page should fail")
	}
	if err := s.WritePage(5, buf); err == nil {
		t.Fatal("write of unallocated page should fail")
	}
	if err := s.ReadPage(-1, buf); err == nil {
		t.Fatal("negative page should fail")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ids []PageID
	for i := 0; i < 10; i++ {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := s.WritePage(id, fillPage(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		buf := make([]byte, PageSize)
		if err := s.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) || buf[PageSize-1] != byte(i) {
			t.Fatalf("page %d corrupted", id)
		}
	}
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Allocate()
	if err := s.WritePage(id, fillPage(42)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumPages() != 1 {
		t.Fatalf("reopened store has %d pages, want 1", s2.NumPages())
	}
	buf := make([]byte, PageSize)
	if err := s2.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[100] != 42 {
		t.Fatal("page lost across reopen")
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	s := NewMemStore()
	bp, err := NewBufferPool(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := bp.Allocate()
	if _, err := bp.ViewPage(id); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.ViewPage(id); err != nil {
		t.Fatal(err)
	}
	st := bp.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Reads != 1 {
		t.Fatalf("stats = %v, want 1 miss, 1 hit, 1 read", st)
	}
}

func TestBufferPoolEvictionLRU(t *testing.T) {
	s := NewMemStore()
	bp, _ := NewBufferPool(s, 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, _ := bp.Allocate()
		ids = append(ids, id)
	}
	_, _ = bp.ViewPage(ids[0])
	_, _ = bp.ViewPage(ids[1])
	_, _ = bp.ViewPage(ids[0]) // refresh 0; 1 is now LRU
	_, _ = bp.ViewPage(ids[2]) // evicts 1
	bp.ResetStats()
	_, _ = bp.ViewPage(ids[0]) // should still be cached
	_, _ = bp.ViewPage(ids[2]) // should still be cached
	if st := bp.Stats(); st.Misses != 0 {
		t.Fatalf("expected pages 0 and 2 cached, stats %v", st)
	}
	_, _ = bp.ViewPage(ids[1]) // evicted earlier -> miss
	if st := bp.Stats(); st.Misses != 1 {
		t.Fatalf("expected page 1 to be a miss, stats %v", st)
	}
}

func TestBufferPoolWriteBack(t *testing.T) {
	s := NewMemStore()
	bp, _ := NewBufferPool(s, 1)
	a, _ := bp.Allocate()
	b, _ := bp.Allocate()
	if err := bp.PatchPage(a, 0, fillPage(9)); err != nil {
		t.Fatal(err)
	}
	// Touching b evicts the dirty a, forcing a physical write.
	if _, err := bp.ViewPage(b); err != nil {
		t.Fatal(err)
	}
	if st := bp.Stats(); st.Writes != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %v, want 1 write, 1 eviction", st)
	}
	raw := make([]byte, PageSize)
	if err := s.ReadPage(a, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != 9 {
		t.Fatal("dirty page was not written back on eviction")
	}
}

func TestBufferPoolFlush(t *testing.T) {
	s := NewMemStore()
	bp, _ := NewBufferPool(s, 8)
	id, _ := bp.Allocate()
	if err := bp.PatchPage(id, 0, fillPage(3)); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, PageSize)
	_ = s.ReadPage(id, raw)
	if raw[0] == 3 {
		t.Fatal("write-back pool should not have written yet")
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = s.ReadPage(id, raw)
	if raw[0] != 3 {
		t.Fatal("flush should persist dirty pages")
	}
	// Second flush writes nothing new.
	before := bp.Stats().Writes
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if bp.Stats().Writes != before {
		t.Fatal("second flush should be a no-op")
	}
}

func TestBufferPoolInvalidate(t *testing.T) {
	s := NewMemStore()
	bp, _ := NewBufferPool(s, 8)
	id, _ := bp.Allocate()
	if err := bp.PatchPage(id, 0, fillPage(5)); err != nil {
		t.Fatal(err)
	}
	if err := bp.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if bp.Len() != 0 {
		t.Fatal("invalidate should empty the cache")
	}
	page, err := bp.ViewPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if page[0] != 5 {
		t.Fatal("invalidate lost dirty data")
	}
}

func TestBufferPoolRejectsBadCapacity(t *testing.T) {
	if _, err := NewBufferPool(NewMemStore(), 0); err == nil {
		t.Fatal("capacity 0 should error")
	}
}

// TestBufferPoolReadPageInto: the walk's read sees an unflushed write in
// a resident frame, reads anything else from the store, and leaves the
// pool — residency, recency, counters — exactly as it found it.
func TestBufferPoolReadPageInto(t *testing.T) {
	s := NewMemStore()
	bp, _ := NewBufferPool(s, 2)
	var ids [4]PageID
	for i := range ids {
		ids[i], _ = bp.Allocate()
		if err := s.WritePage(ids[i], fillPage(byte(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Page 0 resident and dirty (the store still holds the old bytes),
	// page 1 resident and clean, pages 2 and 3 on the store only.
	if err := bp.PatchPage(ids[0], 0, fillPage(99)); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.ViewPage(ids[1]); err != nil {
		t.Fatal(err)
	}
	before := bp.Stats()
	buf := make([]byte, PageSize)
	for i, want := range []byte{99, 11, 12, 13} {
		if err := bp.ReadPageInto(ids[i], buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fillPage(want)) {
			t.Fatalf("page %d read as %d..., want %d...", i, buf[0], want)
		}
	}
	if bp.Stats() != before {
		t.Fatalf("walk moved the counters: %v -> %v", before, bp.Stats())
	}
	if bp.Len() != 2 {
		t.Fatalf("walk changed residency: %d frames, want 2", bp.Len())
	}
	// Both frames still resident: reading them again is two hits.
	bp.ViewPage(ids[0])
	bp.ViewPage(ids[1])
	if d := bp.Stats().Sub(before); d.Hits != 2 || d.Misses != 0 {
		t.Fatalf("frames resident before the walk were evicted by it: %v", d)
	}
	if err := bp.ReadPageInto(ids[0], buf[:10]); err == nil {
		t.Fatal("short buffer should error")
	}
	if err := bp.ReadPageInto(PageID(99), buf); err == nil {
		t.Fatal("page beyond the store should error")
	}
}

func TestBlobFileRoundTrip(t *testing.T) {
	bp, _ := NewBufferPool(NewMemStore(), 16)
	f := NewBlobFile(bp)
	var handles []BlobHandle
	var blobs [][]byte
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		n := rng.Intn(3 * PageSize)
		blob := make([]byte, n)
		rng.Read(blob)
		h, err := f.Append(blob)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		blobs = append(blobs, blob)
	}
	for i, h := range handles {
		got, err := readBlob(f, h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("blob %d corrupted (len %d vs %d)", i, len(got), len(blobs[i]))
		}
	}
}

func TestBlobFileEmptyBlob(t *testing.T) {
	bp, _ := NewBufferPool(NewMemStore(), 4)
	f := NewBlobFile(bp)
	h, err := f.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readBlob(f, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("empty blob should read back empty")
	}
}

func TestBlobHandleZeroMeansAbsent(t *testing.T) {
	var h BlobHandle
	if !h.IsZero() {
		t.Fatal("zero handle should be IsZero")
	}
	bp, _ := NewBufferPool(NewMemStore(), 4)
	f := NewBlobFile(bp)
	h2, _ := f.Append([]byte("x"))
	if h2.IsZero() {
		t.Fatal("real handle should not be IsZero (offset 0 is reserved)")
	}
}

func TestBlobFileSpansPages(t *testing.T) {
	bp, _ := NewBufferPool(NewMemStore(), 16)
	f := NewBlobFile(bp)
	big := make([]byte, PageSize*2+123)
	for i := range big {
		big[i] = byte(i % 251)
	}
	h, err := f.Append(big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readBlob(f, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("multi-page blob corrupted")
	}
	if bp.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", bp.NumPages())
	}
}

func TestBlobFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blobs.db")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	bp, _ := NewBufferPool(s, 8)
	f := NewBlobFile(bp)
	h1, _ := f.Append([]byte("hello"))
	h2, _ := f.Append([]byte("world"))
	tail := f.Tail()
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	bp2, _ := NewBufferPool(s2, 8)
	defer bp2.Close()
	f2 := ReopenBlobFile(bp2, tail)
	for _, tc := range []struct {
		h    BlobHandle
		want string
	}{{h1, "hello"}, {h2, "world"}} {
		got, err := readBlob(f2, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Fatalf("reopened blob = %q, want %q", got, tc.want)
		}
	}
	h3, _ := f2.Append([]byte("again"))
	got, _ := readBlob(f2, h3)
	if string(got) != "again" {
		t.Fatal("append after reopen broken")
	}
	// The new blob must not overlap the old ones.
	if h3.Offset < h2.Offset+int64(h2.Length) {
		t.Fatal("reopened file overwrote existing blobs")
	}
}

func TestBlobFileQuickRoundTrip(t *testing.T) {
	bp, _ := NewBufferPool(NewMemStore(), 4) // tiny pool forces evictions
	f := NewBlobFile(bp)
	fn := func(data []byte) bool {
		h, err := f.Append(data)
		if err != nil {
			return false
		}
		got, err := readBlob(f, h)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIOStatsSub(t *testing.T) {
	a := IOStats{Reads: 10, Writes: 5, Hits: 20, Misses: 10, Evictions: 2}
	b := IOStats{Reads: 4, Writes: 1, Hits: 8, Misses: 4, Evictions: 1}
	d := a.Sub(b)
	if d.Reads != 6 || d.Writes != 4 || d.Hits != 12 || d.Misses != 6 || d.Evictions != 1 {
		t.Fatalf("Sub = %v", d)
	}
	if d.String() == "" {
		t.Fatal("String should format")
	}
}
