// Package storage provides the disk layer under the ST-Index time lists.
//
// The paper's central systems claim is that the Con-Index saves *disk
// reads of trajectory time lists* during query processing. To make that
// claim measurable, this package provides an explicit page-based store
// with an LRU buffer pool and I/O counters: every time-list access goes
// through ViewPage, and the pool's statistics expose exactly how many page
// reads a query strategy cost. Two backends are provided — an in-memory
// backend for tests and a file backend that performs real I/O.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// PageID identifies a page within a Store.
type PageID int64

// ErrPageOutOfRange is returned when reading a page that was never
// allocated.
var ErrPageOutOfRange = errors.New("storage: page out of range")

// Store is the raw page backend beneath a BufferPool.
type Store interface {
	// NumPages returns the number of allocated pages.
	NumPages() int64
	// Allocate appends a zeroed page and returns its ID.
	Allocate() (PageID, error)
	// ReadPage fills buf (len PageSize) with the page contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (len PageSize) as the page contents.
	WritePage(id PageID, buf []byte) error
	// Close releases backend resources.
	Close() error
}

// MemStore is an in-memory Store. It is safe for concurrent use.
type MemStore struct {
	mu    sync.RWMutex
	pages [][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// NumPages implements Store.
func (m *MemStore) NumPages() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.pages))
}

// Allocate implements Store.
func (m *MemStore) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = append(m.pages, make([]byte, PageSize))
	return PageID(len(m.pages) - 1), nil
}

// ReadPage implements Store.
func (m *MemStore) ReadPage(id PageID, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if id < 0 || int(id) >= len(m.pages) {
		return fmt.Errorf("%w: %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	copy(buf, m.pages[id])
	return nil
}

// WritePage implements Store.
func (m *MemStore) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < 0 || int(id) >= len(m.pages) {
		return fmt.Errorf("%w: %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	copy(m.pages[id], buf)
	return nil
}

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// FileStore is a Store backed by a single file of consecutive pages.
type FileStore struct {
	mu   sync.Mutex
	f    *os.File
	n    int64 // allocated pages
	path string
}

// OpenFileStore creates or opens the page file at path. An existing file
// must be a whole number of pages.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not a multiple of the %d-byte page size", path, st.Size(), PageSize)
	}
	return &FileStore{f: f, n: st.Size() / PageSize, path: path}, nil
}

// NumPages implements Store.
func (s *FileStore) NumPages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Allocate implements Store.
func (s *FileStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var zero [PageSize]byte
	if _, err := s.f.WriteAt(zero[:], s.n*PageSize); err != nil {
		return 0, fmt.Errorf("storage: allocate page %d: %w", s.n, err)
	}
	id := PageID(s.n)
	s.n++
	return id, nil
}

// ReadPage implements Store.
func (s *FileStore) ReadPage(id PageID, buf []byte) error {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	if id < 0 || int64(id) >= n {
		return fmt.Errorf("%w: %d of %d", ErrPageOutOfRange, id, n)
	}
	if _, err := s.f.ReadAt(buf[:PageSize], int64(id)*PageSize); err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements Store.
func (s *FileStore) WritePage(id PageID, buf []byte) error {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	if id < 0 || int64(id) >= n {
		return fmt.Errorf("%w: %d of %d", ErrPageOutOfRange, id, n)
	}
	if _, err := s.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error { return s.f.Close() }

// Sync fsyncs the backing file: pages written (flushed) before the call
// are durable when it returns. Part of the optional Syncer contract the
// persistence layer probes for.
func (s *FileStore) Sync() error {
	CrashPoint("pages.sync")
	return s.f.Sync()
}

// Path returns the backing file path.
func (s *FileStore) Path() string { return s.path }

// Syncer is the optional Store extension for backends with a durability
// boundary (FileStore). Memory-backed stores simply don't implement it.
type Syncer interface {
	Sync() error
}
