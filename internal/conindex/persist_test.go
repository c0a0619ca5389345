package conindex

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"streach/internal/roadnet"
	"streach/internal/storage"
)

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// conHeader is a conindex.bin header and nothing else: magic, version 2,
// slot seconds, segment count.
func conHeader(slotSec, numSeg uint32) []byte {
	b := []byte(conMagic)
	b = binary.LittleEndian.AppendUint16(b, conVersion)
	b = binary.LittleEndian.AppendUint32(b, slotSec)
	return binary.LittleEndian.AppendUint32(b, numSeg)
}

// adjHeader is a conindex.adj header claiming rows it does not hold.
func adjHeader(slotSec, numSeg, rows uint32) []byte {
	b := []byte(adjMagic)
	b = binary.LittleEndian.AppendUint16(b, adjVersion)
	b = binary.LittleEndian.AppendUint32(b, slotSec)
	b = binary.LittleEndian.AppendUint32(b, numSeg)
	return binary.LittleEndian.AppendUint32(b, rows)
}

// TestLoadAllocatesByBytesRead: a 14-byte header claiming 1-second slots
// must fail without allocating the 86 400 × 112 statistics it promises
// (160 MB), from a stream and from a file alike; allocation follows the
// records that actually arrive, or the file's length.
func TestLoadAllocatesByBytesRead(t *testing.T) {
	n := testNetwork(t)
	blob := conHeader(1, uint32(n.NumSegments()))
	for name, r := range streamAndFile(t, blob) {
		var err error
		got := allocatedBy(func() { _, err = Load(n, r) })
		if err == nil {
			t.Fatalf("%s: a header-only blob loaded", name)
		}
		if got > 1<<20 {
			t.Fatalf("%s: loading a %d-byte blob allocated %d bytes", name, len(blob), got)
		}
	}
}

// TestLoadAdjacencyAllocatesByBytesRead: an 18-byte blob claiming
// 2^32-1 rows must fail without pre-sizing its pending rows from that
// count (4 MB on this network at 300 s slots), from a stream and from a
// file alike.
func TestLoadAdjacencyAllocatesByBytesRead(t *testing.T) {
	n := testNetwork(t)
	idx := build(t, n, testDataset(t, n))
	blob := adjHeader(300, uint32(n.NumSegments()), 0xFFFFFFFF)
	for name, r := range streamAndFile(t, blob) {
		var err error
		got := allocatedBy(func() { err = idx.LoadAdjacency(r) })
		if err == nil {
			t.Fatalf("%s: a header-only adjacency blob loaded", name)
		}
		if got > 1<<20 {
			t.Fatalf("%s: loading a %d-byte adjacency blob allocated %d bytes", name, len(blob), got)
		}
	}
}

// streamAndFile returns blob twice: as a plain stream, and as an open
// file, whose length the loaders may size their arrays from.
func streamAndFile(t *testing.T, blob []byte) map[string]io.Reader {
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return map[string]io.Reader{"stream": bytes.NewReader(blob), "file": f}
}

// asV2 is the blob a v1 blob re-saves as: version 2, then the checksum
// v1 lacks. Any other blob re-saves as itself.
func asV2(blob []byte) []byte {
	if len(blob) < 6 || binary.LittleEndian.Uint16(blob[4:6]) != 1 {
		return blob
	}
	out := slices.Clone(blob)
	binary.LittleEndian.PutUint16(out[4:6], 2)
	return binary.LittleEndian.AppendUint32(out, storage.Checksum(out))
}

// fuzzIndex is a small Con-Index for the fuzz targets: 6-hour slots, so
// its statistics are 7 KB and a Load is cheap enough to run per input.
func fuzzIndex(f *testing.F) (*roadnet.Network, *Index) {
	n := testNetwork(f)
	idx, err := Build(n, testDataset(f, n), Config{SlotSeconds: 21600})
	if err != nil {
		f.Fatal(err)
	}
	return n, idx
}

// FuzzLoadConIndex: no byte string panics Load or makes it allocate past
// what it reads, and a blob Load accepts holds one statistic per (slot,
// segment) and re-saves byte for byte.
func FuzzLoadConIndex(f *testing.F) {
	n, idx := fuzzIndex(f)
	var saved bytes.Buffer
	if err := idx.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(conHeader(1, uint32(n.NumSegments())))
	f.Fuzz(func(t *testing.T, blob []byte) {
		x, err := Load(n, bytes.NewReader(blob))
		if err != nil {
			return
		}
		if want := x.numSlots * n.NumSegments(); len(x.minSpeed) != want || len(x.maxSpeed) != want || len(x.sumSpeed) != want || len(x.cntSpeed) != want {
			t.Fatalf("loaded %d statistics, want %d", len(x.minSpeed), want)
		}
		var out bytes.Buffer
		if err := x.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), asV2(blob)) {
			t.Fatalf("a loaded blob re-saves differently (%d bytes in, %d out)", len(blob), out.Len())
		}
	})
}

// FuzzLoadAdjacency: no byte string panics LoadAdjacency, and a blob it
// accepts installs rows whose keys and members lie inside the index and
// re-saves byte for byte.
func FuzzLoadAdjacency(f *testing.F) {
	n, idx := fuzzIndex(f)
	for slot := 0; slot < idx.numSlots; slot++ {
		for seg := 0; seg < n.NumSegments(); seg += 2 {
			for _, k := range []Kind{Far, Near, FarReverse, NearReverse} {
				row(idx, k, roadnet.SegmentID(seg), slot)
			}
		}
	}
	var stats, adj bytes.Buffer
	if err := idx.Save(&stats); err != nil {
		f.Fatal(err)
	}
	if err := idx.SaveAdjacency(&adj); err != nil {
		f.Fatal(err)
	}
	f.Add(adj.Bytes())
	f.Add(adjHeader(21600, uint32(n.NumSegments()), 0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, blob []byte) {
		x, err := Load(n, bytes.NewReader(stats.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := x.LoadAdjacency(bytes.NewReader(blob)); err != nil {
			return
		}
		for ti, tbl := range x.adjTables() {
			tbl.forEach(func(slot int, seg roadnet.SegmentID, r Row) {
				if slot >= x.numSlots || int(seg) >= n.NumSegments() {
					t.Fatalf("table %d: row at slot %d seg %d outside the index", ti, slot, seg)
				}
				for _, m := range r.AppendTo(nil) {
					if m < 0 || int(m) >= n.NumSegments() {
						t.Fatalf("table %d slot %d seg %d: member %d outside the network", ti, slot, seg, m)
					}
				}
			})
		}
		var out bytes.Buffer
		if err := x.SaveAdjacency(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), asV2(blob)) {
			t.Fatalf("a loaded adjacency blob re-saves differently (%d bytes in, %d out)", len(blob), out.Len())
		}
	})
}
