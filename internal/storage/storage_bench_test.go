package storage

import (
	"math/rand"
	"testing"
)

func BenchmarkBufferPoolHit(b *testing.B) {
	bp, _ := NewBufferPool(NewMemStore(), 64)
	var ids []PageID
	for i := 0; i < 32; i++ {
		id, _ := bp.Allocate()
		ids = append(ids, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.ViewPage(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBufferPoolMissEvict(b *testing.B) {
	bp, _ := NewBufferPool(NewMemStore(), 16)
	var ids []PageID
	for i := 0; i < 256; i++ { // 16x the pool: every access misses
		id, _ := bp.Allocate()
		ids = append(ids, id)
	}
	rng := rand.New(rand.NewSource(41))
	order := rng.Perm(len(ids))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.ViewPage(ids[order[i%len(order)]]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlobAppendRead(b *testing.B) {
	bp, _ := NewBufferPool(NewMemStore(), 256)
	f := NewBlobFile(bp)
	blob := make([]byte, 600) // a typical time list
	rand.New(rand.NewSource(42)).Read(blob)
	var handles []BlobHandle
	for i := 0; i < 1024; i++ {
		h, err := f.Append(blob)
		if err != nil {
			b.Fatal(err)
		}
		handles = append(handles, h)
	}
	r := f.NewReader()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(handles[i%len(handles)]); err != nil {
			b.Fatal(err)
		}
	}
}
