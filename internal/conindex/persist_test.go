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
	"streach/internal/traj"
	"streach/internal/xerr"
)

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// framed is payload in a frame with a valid checksum.
func framed(magic string, version uint16, payload []byte) []byte {
	var b bytes.Buffer
	fw := storage.NewChecksumWriter(&b, magic, version)
	fw.Write(payload)
	fw.Finish()
	return b.Bytes()
}

// payloadOf is the payload of a frame.
func payloadOf(frame []byte) []byte {
	var p []byte
	for off := 6; ; {
		n := int(binary.LittleEndian.Uint32(frame[off:]))
		if n == 0 {
			return p
		}
		p = append(p, frame[off+4:off+4+n]...)
		off += 8 + n
	}
}

// u32s is the records of a header: each value as a u32.
func u32s(vs ...uint32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// TestLoadAllocatesByBytesRead: a conindex.bin of either layout whose
// checksums hold but whose header claims 1-second slots and carries no
// statistics, or a version 4 file whose bitmap marks all 288 slots
// present in a few hundred bytes, must fail without allocating the
// statistics it promises (160 MB and 516 KB on a 112-segment network),
// from a stream and from a file alike: the arrays are sized by what the
// file can hold.
func TestLoadAllocatesByBytesRead(t *testing.T) {
	n := testNetwork(t)
	allPresent := append(u32s(300, uint32(n.NumSegments())), bytes.Repeat([]byte{0xff}, 288/8)...)
	blobs := map[string][]byte{
		"v3 header only":         framed(conMagic, conV3, u32s(1, uint32(n.NumSegments()))),
		"v4 header only":         framed(conMagic, conVersion, u32s(1, uint32(n.NumSegments()))),
		"v4 every slot, no rows": framed(conMagic, conVersion, append(allPresent, make([]byte, 300)...)),
	}
	for blobName, blob := range blobs {
		limit := uint64(1 << 20)
		if blobName == "v4 every slot, no rows" {
			limit = 64 << 10
		}
		for name, r := range streamAndFile(t, blob) {
			var err error
			got := allocatedBy(func() { _, err = Load(n, r) })
			if xerr.KindOf(err) != xerr.KindCorrupt {
				t.Fatalf("%s from a %s: loaded or failed unmarked: %v", blobName, name, err)
			}
			if got > limit {
				t.Fatalf("%s from a %s: loading a %d-byte blob allocated %d bytes", blobName, name, len(blob), got)
			}
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

// denseStats is x's statistics in the version 3 layout, every slot
// written, as the build before version 4 saved them.
func denseStats(t testing.TB, x *Index) []byte {
	t.Helper()
	var b bytes.Buffer
	fw := storage.NewChecksumWriter(&b, conMagic, conV3)
	fw.Uint32(uint32(x.slotSec))
	fw.Uint32(uint32(x.net.NumSegments()))
	for s := 0; s < x.numSlots; s++ {
		r := x.slot(s)
		for i := range r.min {
			fw.Uint32(r.min[i])
			fw.Uint32(r.max[i])
			fw.Uint32(r.sum[i])
			fw.Uint32(r.cnt[i])
		}
	}
	if err := fw.Finish(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sameStatistics fails t unless a and b hold the same statistics in
// every cell.
func sameStatistics(t testing.TB, a, b *Index) {
	t.Helper()
	if a.numSlots != b.numSlots {
		t.Fatalf("%d slots against %d", a.numSlots, b.numSlots)
	}
	for s := 0; s < a.numSlots; s++ {
		if !a.slot(s).sameCells(b.slot(s)) {
			t.Fatalf("slot %d holds different statistics", s)
		}
	}
}

// TestStatisticsV3Upgrade: version 3 statistics — with a live sample
// folded into a slot the build left without one — load into the same
// cells, leave the unsampled slots without a row, and save the version 4
// file the index itself saves.
func TestStatisticsV3Upgrade(t *testing.T) {
	n, idx := fuzzIndex(t)
	empty := -1
	for s := 0; s < idx.numSlots && empty < 0; s++ {
		if idx.speeds[s].Load() == nil {
			empty = s
		}
	}
	if empty < 0 {
		t.Fatal("the fixture samples every slot")
	}
	idx.ObserveSpeedBatch([]SpeedSample{{Seg: 3, Slot0: empty, Slot1: empty, Speed: 9}})
	var sparse bytes.Buffer
	if err := idx.Save(&sparse); err != nil {
		t.Fatal(err)
	}
	dense := denseStats(t, idx)
	if sparse.Len() >= len(dense) {
		t.Fatalf("the version 4 file is %d bytes against version 3's %d", sparse.Len(), len(dense))
	}
	old, err := Load(n, bytes.NewReader(dense))
	if err != nil {
		t.Fatal(err)
	}
	sameStatistics(t, old, idx)
	for s := 0; s < idx.numSlots; s++ {
		if (old.speeds[s].Load() == nil) != (idx.speeds[s].Load() == nil) {
			t.Fatalf("slot %d: a row after the version 3 load is %v, in the saved index %v", s, old.speeds[s].Load() != nil, idx.speeds[s].Load() != nil)
		}
	}
	var again bytes.Buffer
	if err := old.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), sparse.Bytes()) {
		t.Fatal("an index loaded from version 3 saves a different version 4 file")
	}
}

// TestLoadRejectsNonCanonical: statistics whose checksums hold but that
// no Save writes — a slot marked past the last, a stored slot without a
// sample, a version 3 slot without a sample that does not hold the
// fallback speeds — are corrupt.
func TestLoadRejectsNonCanonical(t *testing.T) {
	n, idx := fuzzIndex(t)
	for name, blob := range nonCanonical(t, n, idx) {
		if _, err := Load(n, bytes.NewReader(blob)); xerr.KindOf(err) != xerr.KindCorrupt {
			t.Fatalf("%s: load error %v, want KindCorrupt", name, err)
		}
	}
}

// nonCanonical is statistics of idx edited into forms no Save writes.
func nonCanonical(t testing.TB, n *roadnet.Network, idx *Index) map[string][]byte {
	var saved bytes.Buffer
	if err := idx.Save(&saved); err != nil {
		t.Fatal(err)
	}
	p := payloadOf(saved.Bytes())
	pastLast := slices.Clone(p)
	pastLast[8] |= 0x80 // 4 slots: bits 4–7 of the bitmap are past the last
	unsampled := append(slices.Clone(p[:9]), make([]byte, 16*n.NumSegments())...)
	unsampled[8] = 1
	dense := payloadOf(denseStats(t, idx))
	offFallback := slices.Clone(dense)
	for s := 0; s < idx.numSlots; s++ {
		if idx.speeds[s].Load() == nil {
			offFallback[8+16*s*n.NumSegments()] ^= 1
			break
		}
	}
	return map[string][]byte{
		"v4 slot past the last":      framed(conMagic, conVersion, pastLast),
		"v4 slot without a sample":   framed(conMagic, conVersion, unsampled),
		"v3 unsampled, not fallback": framed(conMagic, conV3, offFallback),
	}
}

// fuzzIndex is a small Con-Index for the fuzz target: 6-hour slots, so
// its statistics are 7 KB and a Load is cheap enough to run per input.
// Its fleet drives only in the first, so three slots have no sample.
func fuzzIndex(t testing.TB) (*roadnet.Network, *Index) {
	n := testNetwork(t)
	ds, err := traj.Simulate(n, traj.SimConfig{
		Taxis: 15, Days: 4, Profile: traj.DefaultSpeedProfile(), Seed: 5,
		ActiveStartSec: 3600, ActiveEndSec: 4 * 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(n, ds, Config{SlotSeconds: 21600})
	if err != nil {
		t.Fatal(err)
	}
	return n, idx
}

// FuzzLoadConIndex: no records of either layout, framed with a valid
// checksum (the frame itself is FuzzFrame's), panic Load. A blob Load
// accepts holds one statistic per (slot, segment); a version 4 blob
// re-saves byte for byte, a version 3 one into a version 4 blob that
// loads the same statistics.
func FuzzLoadConIndex(f *testing.F) {
	n, idx := fuzzIndex(f)
	var saved bytes.Buffer
	if err := idx.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(false, payloadOf(saved.Bytes()))
	f.Add(false, u32s(1, uint32(n.NumSegments())))
	f.Add(true, payloadOf(denseStats(f, idx)))
	f.Add(true, u32s(1, uint32(n.NumSegments())))
	for _, blob := range nonCanonical(f, n, idx) {
		f.Add(binary.LittleEndian.Uint16(blob[4:]) == conV3, payloadOf(blob))
	}
	f.Fuzz(func(t *testing.T, v3 bool, payload []byte) {
		version := uint16(conVersion)
		if v3 {
			version = conV3
		}
		blob := framed(conMagic, version, payload)
		x, err := Load(n, bytes.NewReader(blob))
		if err != nil {
			return
		}
		for s := 0; s < x.numSlots; s++ {
			if r := x.slot(s); len(r.min) != n.NumSegments() || len(r.max) != len(r.min) || len(r.sum) != len(r.min) || len(r.cnt) != len(r.min) {
				t.Fatalf("slot %d: loaded %d statistics, want %d", s, len(r.min), n.NumSegments())
			}
		}
		var out bytes.Buffer
		if err := x.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !v3 && !bytes.Equal(out.Bytes(), blob) {
			t.Fatalf("a loaded blob re-saves differently (%d bytes in, %d out)", len(blob), out.Len())
		}
		y, err := Load(n, bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("a saved blob does not load: %v", err)
		}
		sameStatistics(t, y, x)
	})
}
