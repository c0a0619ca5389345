package storage

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestBlobReaderMatchesRead: a reader whose memo outlives the pool's
// frames returns the bytes a fresh reader returns, for blobs inside one
// page and across several, in any order, and fails where it fails.
func TestBlobReaderMatchesRead(t *testing.T) {
	bp, _ := NewBufferPool(NewMemStore(), 3) // smaller than the memo: views outlive their frames
	f := NewBlobFile(bp)
	rng := rand.New(rand.NewSource(4))
	var handles []BlobHandle
	for i := 0; i < 400; i++ {
		n := rng.Intn(300)
		if i%40 == 0 {
			n = PageSize + rng.Intn(2*PageSize)
		}
		blob := make([]byte, n)
		rng.Read(blob)
		h, err := f.Append(blob)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	r := f.NewReader()
	for _, i := range rng.Perm(len(handles)) {
		want, err := readBlob(f, handles[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Read(handles[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("blob %d (%+v): reader and file disagree", i, handles[i])
		}
	}
	for _, bad := range []BlobHandle{{Offset: 5, Length: -1}, {Offset: -PageSize, Length: 4}, {Offset: 1 << 40, Length: 4}} {
		_, ferr := readBlob(f, bad)
		_, rerr := r.Read(bad)
		if ferr == nil || rerr == nil {
			t.Fatalf("handle %+v: file error %v, reader error %v, want both to fail", bad, ferr, rerr)
		}
	}
}

// TestBlobReaderResetSeesLaterAppends pins why a long-lived reader must
// Reset before reading handles newer than its memo: the page it
// memoised can have been evicted and re-read into a fresh frame before
// the append, which the old view never sees.
func TestBlobReaderResetSeesLaterAppends(t *testing.T) {
	bp, _ := NewBufferPool(NewMemStore(), 1)
	f := NewBlobFile(bp)
	first, err := f.Append([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	r := f.NewReader()
	if got, err := r.Read(first); err != nil || string(got) != "first" {
		t.Fatalf("read %q, %v", got, err)
	}
	// Evict page 0 from the one-frame pool, then append into it again.
	if _, err := bp.Allocate(); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.ViewPage(1); err != nil {
		t.Fatal(err)
	}
	second, err := f.Append([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Read(first); err != nil || string(got) != "first" {
		t.Fatalf("a blob the memo knew changed under an append: %q, %v", got, err)
	}
	r.Reset()
	if got, err := r.Read(second); err != nil || string(got) != "second" {
		t.Fatalf("after Reset read %q, %v, want the appended blob", got, err)
	}
}

// TestPatchPageLeavesOtherBytes: a patch stores to its own range only —
// the bytes around it are not written, which is what lets readers keep
// walking older blobs of the page in place — and reaches the backend on
// write-back.
func TestPatchPageLeavesOtherBytes(t *testing.T) {
	store := NewMemStore()
	bp, _ := NewBufferPool(store, 2)
	id, _ := bp.Allocate()
	if err := bp.PatchPage(id, 0, fillPage(7)); err != nil {
		t.Fatal(err)
	}
	view, err := bp.ViewPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.PatchPage(id, 100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	want := fillPage(7)
	copy(want[100:], []byte{1, 2, 3})
	if !bytes.Equal(view, want) {
		t.Fatal("the patch did not land in the viewed frame, or touched bytes outside its range")
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := store.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the patched page did not reach the store")
	}
	for _, bad := range [][2]int{{-1, 1}, {PageSize - 1, 2}} {
		if err := bp.PatchPage(id, bad[0], make([]byte, bad[1])); err == nil {
			t.Fatalf("PatchPage(off=%d, len=%d) should fail", bad[0], bad[1])
		}
	}
}
