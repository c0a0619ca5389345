package storage

import (
	"fmt"
)

// BlobHandle locates a variable-length record inside the page space of a
// store: a byte offset from page 0 and a length. Blobs may span pages.
type BlobHandle struct {
	Offset int64
	Length int32
}

// IsZero reports whether the handle is the zero value (no blob).
func (h BlobHandle) IsZero() bool { return h.Offset == 0 && h.Length == 0 }

// BlobFile lays variable-length records sequentially across the pages of a
// buffer pool. Writers append; readers fetch by handle through a
// BlobReader (NewReader). This is how the ST-Index persists its
// per-(segment, slot) time lists: each list is one blob, and reading it
// costs ceil(len/PageSize) buffered page reads — the unit of I/O the
// evaluation counts.
type BlobFile struct {
	pool *BufferPool
	// tail is the next free byte offset.
	tail int64
}

// NewBlobFile wraps the pool. Offset 0 is reserved so that the zero
// BlobHandle can mean "absent"; a fresh file starts writing at byte 1.
func NewBlobFile(pool *BufferPool) *BlobFile {
	return &BlobFile{pool: pool, tail: 1}
}

// ReopenBlobFile wraps a pool whose pages already hold blobs, resuming
// appends at the given tail offset (as returned by Tail).
func ReopenBlobFile(pool *BufferPool, tail int64) *BlobFile {
	if tail < 1 {
		tail = 1
	}
	return &BlobFile{pool: pool, tail: tail}
}

// Tail returns the next free byte offset; persist it alongside the data to
// reopen the file later.
func (f *BlobFile) Tail() int64 { return f.tail }

// Pool exposes the underlying buffer pool (for stats).
func (f *BlobFile) Pool() *BufferPool { return f.pool }

// Append writes data as a new blob and returns its handle.
func (f *BlobFile) Append(data []byte) (BlobHandle, error) {
	h := BlobHandle{Offset: f.tail, Length: int32(len(data))}
	if len(data) == 0 {
		return h, nil
	}
	if err := f.writeAt(f.tail, data); err != nil {
		return BlobHandle{}, err
	}
	f.tail += int64(len(data))
	return h, nil
}

func (f *BlobFile) writeAt(off int64, data []byte) error {
	for len(data) > 0 {
		pid := PageID(off / PageSize)
		inPage := int(off % PageSize)
		n := PageSize - inPage
		if n > len(data) {
			n = len(data)
		}
		for pid >= PageID(f.pool.NumPages()) {
			if _, err := f.pool.Allocate(); err != nil {
				return err
			}
		}
		if err := f.pool.PatchPage(pid, inPage, data[:n]); err != nil {
			return err
		}
		off += int64(n)
		data = data[n:]
	}
	return nil
}

// readerMemoSize is the BlobReader's page memo size (a power of two). A
// probe window touches one page per slot plus the odd straddle, so a few
// dozen direct-mapped entries keep collisions — which only cost a pool
// access, never correctness — rare.
const readerMemoSize = 64

// BlobReader reads blobs through a page memo: each page it touches is
// fetched from the buffer pool once and then served from a small
// direct-mapped table, no matter how many blobs share the page. Small
// neighbouring blobs (the common case for per-(segment, slot) time
// lists, which pack many lists per page) then cost one pool access per
// page instead of one per list. A BlobReader is not safe for concurrent
// use.
//
// The memo holds zero-copy views of pool frames. Blobs are immutable once
// written and appends only touch bytes past the old tail, so a memoised
// view stays correct for every blob that existed when the page was
// fetched — but a blob appended later may be missing from it (the frame
// can have been evicted and re-read into a fresh buffer in between). A
// reader that outlives appends must therefore Reset before reading
// handles it did not know when the memo was filled.
type BlobReader struct {
	f     *BlobFile
	ids   [readerMemoSize]PageID
	pages [readerMemoSize][]byte
	buf   []byte // assembly buffer for blobs that span pages
}

// NewReader returns a reader over the file with an empty memo.
func (f *BlobFile) NewReader() *BlobReader {
	return &BlobReader{f: f}
}

// Reset drops the page memo.
func (r *BlobReader) Reset() {
	r.pages = [readerMemoSize][]byte{}
}

// Read returns the blob's contents without allocating: a single-page
// blob (the common case: many small time lists per page) is a view into
// the memoised page, a blob that spans pages is assembled in the
// reader's own buffer. Either way the slice is read-only and valid only
// until the next Read.
func (r *BlobReader) Read(h BlobHandle) ([]byte, error) {
	if h.Length > 0 && h.Offset >= 0 {
		inPage := int(h.Offset % PageSize)
		if end := inPage + int(h.Length); end <= PageSize {
			page, err := r.getPage(PageID(h.Offset / PageSize))
			if err != nil {
				return nil, err
			}
			return page[inPage:end:end], nil
		}
	}
	return r.gather(h)
}

func (r *BlobReader) getPage(pid PageID) ([]byte, error) {
	i := uint64(pid) & (readerMemoSize - 1)
	if r.ids[i] == pid && r.pages[i] != nil {
		return r.pages[i], nil
	}
	page, err := r.f.pool.ViewPage(pid)
	if err != nil {
		return nil, err
	}
	r.ids[i], r.pages[i] = pid, page
	return page, nil
}

// gather assembles a blob's bytes in the reader's buffer (grown as
// needed) through the page memo.
func (r *BlobReader) gather(h BlobHandle) ([]byte, error) {
	if h.Length < 0 {
		return nil, fmt.Errorf("storage: negative blob length %d", h.Length)
	}
	if h.Length == 0 {
		return nil, nil
	}
	if cap(r.buf) < int(h.Length) {
		r.buf = make([]byte, h.Length)
	}
	out := r.buf[:h.Length]
	off := h.Offset
	buf := out
	for len(buf) > 0 {
		pid := PageID(off / PageSize)
		inPage := int(off % PageSize)
		n := PageSize - inPage
		if n > len(buf) {
			n = len(buf)
		}
		page, err := r.getPage(pid)
		if err != nil {
			return nil, err
		}
		copy(buf[:n], page[inPage:inPage+n])
		off += int64(n)
		buf = buf[n:]
	}
	return out, nil
}
