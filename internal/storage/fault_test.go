package storage

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBufferPoolPropagatesReadFault(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), Scenario{Rules: []FaultRule{{Op: OpRead, Mode: ModeError}}})
	bp, _ := NewBufferPool(fs, 4)
	id, _ := bp.Allocate()
	if _, err := bp.ViewPage(id); !errors.Is(err, ErrInjected) {
		t.Fatalf("ViewPage error = %v, want injected fault", err)
	}
	// The failed page must not be cached.
	if bp.Len() != 0 {
		t.Fatal("failed read should not leave a cached frame")
	}
}

func TestBufferPoolPropagatesEvictionWriteFault(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), Scenario{Rules: []FaultRule{{Op: OpWrite, Mode: ModeError}}})
	bp, _ := NewBufferPool(fs, 1)
	a, _ := bp.Allocate()
	b, _ := bp.Allocate()
	if err := bp.PatchPage(a, 0, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	// Touching b forces eviction of dirty a, whose write-back fails.
	_, err := bp.ViewPage(b)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("eviction error = %v, want injected fault", err)
	}
}

func TestBufferPoolPropagatesFlushFault(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), Scenario{Rules: []FaultRule{{Op: OpWrite, Mode: ModeError}}})
	bp, _ := NewBufferPool(fs, 8)
	id, _ := bp.Allocate()
	if err := bp.PatchPage(id, 0, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := bp.Flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Flush error = %v, want injected fault", err)
	}
}

func TestBlobFilePropagatesAllocFault(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), Scenario{Rules: []FaultRule{{Op: OpAlloc, Mode: ModeError}}})
	bp, _ := NewBufferPool(fs, 4)
	f := NewBlobFile(bp)
	if _, err := f.Append([]byte("payload")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append error = %v, want injected fault", err)
	}
}

func TestBlobFileRecoversAfterTransientFault(t *testing.T) {
	// Arm a read fault after the blobs are written, verify it surfaces,
	// then clear it and confirm the same handles read back intact.
	fs := NewFaultStore(NewMemStore(), Scenario{})
	bp, _ := NewBufferPool(fs, 1) // capacity 1 forces physical reads
	f := NewBlobFile(bp)
	h1, err := f.Append([]byte("aaaa"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := f.Append(make([]byte, PageSize)) // spills to a second page
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Invalidate(); err != nil {
		t.Fatal(err)
	}
	fs.Arm(FaultRule{Op: OpRead, Mode: ModeError}) // next physical read faults
	if _, err := readBlob(f, h1); !errors.Is(err, ErrInjected) {
		t.Fatalf("Read error = %v, want injected fault", err)
	}
	if fs.Injected() == 0 {
		t.Fatal("Injected() should count the faulted read")
	}
	// Fault cleared: everything reads again, nothing was corrupted.
	fs.Clear()
	got, err := readBlob(f, h1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaaa" {
		t.Fatalf("recovered read = %q", got)
	}
	big, err := readBlob(f, h2)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != PageSize {
		t.Fatalf("recovered big blob length = %d", len(big))
	}
}

func TestFaultStoreArmingAndCount(t *testing.T) {
	// read:error@2x1 — reads 1-2 pass, read 3 fails, reads 4+ pass.
	fs := NewFaultStore(NewMemStore(), Scenario{Rules: []FaultRule{
		{Op: OpRead, Mode: ModeError, After: 2, Count: 1},
	}})
	id, _ := fs.Allocate()
	buf := make([]byte, PageSize)
	for i, wantErr := range []bool{false, false, true, false, false} {
		err := fs.ReadPage(id, buf)
		if gotErr := errors.Is(err, ErrInjected); gotErr != wantErr {
			t.Fatalf("read %d: err = %v, want injected=%v", i+1, err, wantErr)
		}
	}
	if n := fs.Injected(); n != 1 {
		t.Fatalf("Injected() = %d, want 1", n)
	}
}

func TestFaultStoreCorruptionIsDeterministic(t *testing.T) {
	payload := make([]byte, PageSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	readBack := func(seed int64) []byte {
		inner := NewMemStore()
		id, _ := inner.Allocate()
		if err := inner.WritePage(id, payload); err != nil {
			t.Fatal(err)
		}
		fs := NewFaultStore(inner, Scenario{Seed: seed, Rules: []FaultRule{
			{Op: OpRead, Mode: ModeCorrupt, Count: 1},
		}})
		buf := make([]byte, PageSize)
		if err := fs.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := readBack(7), readBack(7)
	if bytes.Equal(a, payload) {
		t.Fatal("corrupt read returned pristine data")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed should corrupt the same bit")
	}
	// Exactly one bit differs.
	diff := 0
	for i := range a {
		x := a[i] ^ payload[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want 1", diff)
	}
}

func TestFaultStoreLatency(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), Scenario{Rules: []FaultRule{
		{Op: OpRead, Mode: ModeLatency, Latency: 20 * time.Millisecond, Count: 1},
	}})
	id, _ := fs.Allocate()
	buf := make([]byte, PageSize)
	start := time.Now()
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delayed read took %v, want >= 20ms", d)
	}
	// Rule exhausted: second read is fast-path (no assertion on time,
	// just that it succeeds).
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPoolAccess(t *testing.T) {
	bp, _ := NewBufferPool(NewMemStore(), 8)
	var ids []PageID
	for i := 0; i < 32; i++ {
		id, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for i := 0; i < 200; i++ {
				id := ids[(g*7+i)%len(ids)]
				if i%3 == 0 {
					buf[0] = byte(g)
					if err := bp.PatchPage(id, 0, buf); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := bp.ViewPage(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
}
