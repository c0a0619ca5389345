package stindex

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"streach/internal/roadnet"
	"streach/internal/storage"
	"streach/internal/traj"
	"streach/internal/xerr"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	dir := t.TempDir()
	pagePath := filepath.Join(dir, "pages.db")
	metaPath := filepath.Join(dir, "index.meta")

	// Build over a file store and persist.
	fs, err := storage.OpenFileStore(pagePath)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(n, ds, Config{SlotSeconds: 300, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	metaFile, err := os.Create(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveMeta(metaFile); err != nil {
		t.Fatal(err)
	}
	if err := metaFile.Close(); err != nil {
		t.Fatal(err)
	}
	// Record some ground truth before closing.
	mt := &ds.Matched[0]
	v := mt.Visits[0]
	slot := slotOf(idx, v.Enter(ds.DayStart(mt.Day)))
	want, err := idx.TimeListAt(v.Segment, slot)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen in a "new process".
	fs2, err := storage.OpenFileStore(pagePath)
	if err != nil {
		t.Fatal(err)
	}
	metaIn, err := os.Open(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	defer metaIn.Close()
	idx2, err := LoadIndex(n, Config{Store: fs2}, metaIn)
	if err != nil {
		t.Fatal(err)
	}
	defer idx2.Close()

	if idx2.SlotSeconds() != 300 || idx2.Days() != ds.Days {
		t.Fatalf("reloaded meta wrong: slot=%d days=%d", idx2.SlotSeconds(), idx2.Days())
	}
	if !idx2.BaseDate().Equal(ds.BaseDate) {
		t.Fatalf("base date %v, want %v", idx2.BaseDate(), ds.BaseDate)
	}
	got, err := idx2.TimeListAt(v.Segment, slot)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Days) != len(want.Days) {
		t.Fatalf("reloaded time list has %d days, want %d", len(got.Days), len(want.Days))
	}
	for i := range want.Days {
		if got.Days[i] != want.Days[i] || len(got.Taxis[i]) != len(want.Taxis[i]) {
			t.Fatalf("reloaded time list differs at day index %d", i)
		}
	}

	// Full sweep: every (segment, slot) list must decode after reload.
	for seg := 0; seg < n.NumSegments(); seg += 17 {
		for s := 0; s < idx2.NumSlots(); s += 31 {
			if _, err := idx2.TimeListAt(roadnet.SegmentID(seg), s); err != nil {
				t.Fatalf("reload read seg=%d slot=%d: %v", seg, s, err)
			}
		}
	}
}

func TestLoadRejectsCorruptMeta(t *testing.T) {
	n := testNetwork(t)
	if _, err := LoadIndex(n, Config{}, bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Fatal("bad magic should error")
	}
	if _, err := LoadIndex(n, Config{}, bytes.NewReader(nil)); err == nil {
		t.Fatal("empty meta should error")
	}
	// Valid header but truncated handles.
	ds := testDataset(t, n)
	idx := buildIndex(t, n, ds)
	defer idx.Close()
	var buf bytes.Buffer
	if err := idx.SaveMeta(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadIndex(n, Config{}, bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated meta should error")
	}
}

func TestLoadRejectsWrongNetwork(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	idx := buildIndex(t, n, ds)
	defer idx.Close()
	var buf bytes.Buffer
	if err := idx.SaveMeta(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := roadnet.Generate(roadnet.GenerateConfig{
		Origin: n.Bounds().Center(), Rows: 3, Cols: 3, SpacingMeters: 500, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(other, Config{}, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("meta over a different network should be rejected")
	}
}

func TestSaveLoadPreservesProbeSemantics(t *testing.T) {
	// The per-day taxi sets drive reachability probabilities; a reload
	// must reproduce them exactly for a sample of (segment, slot) pairs.
	n := testNetwork(t)
	ds := testDataset(t, n)
	dir := t.TempDir()
	fs, err := storage.OpenFileStore(filepath.Join(dir, "p.db"))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(n, ds, Config{SlotSeconds: 300, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.SaveMeta(&buf); err != nil {
		t.Fatal(err)
	}
	type sample struct {
		seg  roadnet.SegmentID
		slot int
		sets map[traj.Day]int
	}
	var samples []sample
	for i := 0; i < 10 && i < len(ds.Matched); i++ {
		mt := &ds.Matched[i]
		v := mt.Visits[len(mt.Visits)/3]
		slot := slotOf(idx, v.Enter(ds.DayStart(mt.Day)))
		sets, err := daySets(idx, v.Segment, slot, slot+2)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[traj.Day]int{}
		for d, s := range sets {
			counts[d] = len(s)
		}
		samples = append(samples, sample{v.Segment, slot, counts})
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := storage.OpenFileStore(filepath.Join(dir, "p.db"))
	if err != nil {
		t.Fatal(err)
	}
	idx2, err := LoadIndex(n, Config{Store: fs2}, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer idx2.Close()
	for i, s := range samples {
		sets, err := daySets(idx2, s.seg, s.slot, s.slot+2)
		if err != nil {
			t.Fatal(err)
		}
		if len(sets) != len(s.sets) {
			t.Fatalf("sample %d: %d days after reload, want %d", i, len(sets), len(s.sets))
		}
		for d, cnt := range s.sets {
			if len(sets[d]) != cnt {
				t.Fatalf("sample %d day %d: %d taxis, want %d", i, d, len(sets[d]), cnt)
			}
		}
	}
}

// daySets merges a slot window's per-day taxi sets via TimeListsRange —
// the digest the round-trip test compares before and after reload.
func daySets(idx *Index, seg roadnet.SegmentID, lo, hi int) (map[traj.Day]map[traj.TaxiID]bool, error) {
	lists, err := idx.TimeListsRange(seg, lo, hi, nil)
	if err != nil {
		return nil, err
	}
	out := map[traj.Day]map[traj.TaxiID]bool{}
	for _, b := range lists {
		tl := b.TimeList()
		for i, d := range tl.Days {
			if out[d] == nil {
				out[d] = map[traj.TaxiID]bool{}
			}
			for _, taxi := range tl.Taxis[i] {
				out[d][taxi] = true
			}
		}
	}
	return out, nil
}

// TestMetaRoundTrip: a fresh index saves a meta of the current
// version, and the loaded index saves it back byte for byte.
func TestMetaRoundTrip(t *testing.T) {
	n := testNetwork(t)
	_, mem, meta := savedIndex(t)
	if string(meta[:4]) != metaMagic || binary.LittleEndian.Uint16(meta[4:6]) != metaVersion {
		t.Fatalf("saved meta header %q v%d", meta[:4], binary.LittleEndian.Uint16(meta[4:6]))
	}
	idx, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(meta))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	var again bytes.Buffer
	if err := idx.SaveMeta(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), meta) {
		t.Fatal("a loaded meta saves back different bytes")
	}
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

// metaPayload writes a meta's records by hand, in the layout of version
// v (metaV6 or metaVersion). Handles not in set, keyed
// slot*numSegments+seg, are zero.
func metaPayload(v uint16, n *roadnet.Network, slotSec int, days uint32, tail uint64, pagesCRC uint32, set map[int]storage.BlobHandle) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(slotSec))
	b = binary.LittleEndian.AppendUint32(b, days)
	b = binary.LittleEndian.AppendUint64(b, uint64(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).Unix()))
	b = binary.LittleEndian.AppendUint32(b, uint32(n.NumSegments()))
	b = binary.LittleEndian.AppendUint64(b, tail)
	b = binary.LittleEndian.AppendUint32(b, pagesCRC)
	numSlots, nseg := 86400/slotSec, n.NumSegments()
	if v == metaV6 {
		for i := 0; i < numSlots*nseg; i++ {
			h := set[i]
			b = binary.LittleEndian.AppendUint64(b, uint64(h.Offset))
			b = binary.LittleEndian.AppendUint32(b, uint32(h.Length))
		}
		return b
	}
	present := make([]byte, (numSlots+7)/8)
	for i, h := range set {
		if h.Length != 0 {
			present[i/nseg/8] |= 1 << (i / nseg % 8)
		}
	}
	b = append(b, present...)
	var end int64
	for slot := 0; slot < numSlots; slot++ {
		if present[slot/8]&(1<<(slot%8)) == 0 {
			continue
		}
		for seg := 0; seg < nseg; seg++ {
			h := set[slot*nseg+seg]
			b = binary.AppendUvarint(b, uint64(uint32(h.Length)))
			if h.Length != 0 {
				b = binary.AppendVarint(b, h.Offset-end)
				end = h.Offset + int64(h.Length)
			}
		}
	}
	return b
}

// badMetaPayloads are meta records of version v whose counts would, if
// trusted, make the first probe allocate gigabytes, and, for the sparse
// layout, records that break its canonical form.
func badMetaPayloads(v uint16, n *roadnet.Network, slotSec int, tail int64, pagesCRC uint32) map[string][]byte {
	bad := map[string][]byte{
		"days 1<<30": metaPayload(v, n, slotSec, 1<<30, uint64(tail), pagesCRC, map[int]storage.BlobHandle{5: {Offset: tail - 10, Length: 10}}),
		"handle past the tail": metaPayload(v, n, slotSec, 7, uint64(tail), pagesCRC, map[int]storage.BlobHandle{
			5: {Offset: 1 << 40, Length: 1<<31 - 1},
		}),
		"negative handle length": metaPayload(v, n, slotSec, 7, uint64(tail), pagesCRC, map[int]storage.BlobHandle{
			5: {Offset: 1, Length: -1},
		}),
		"tail past the page store": metaPayload(v, n, slotSec, 7, 1<<41, pagesCRC, map[int]storage.BlobHandle{
			5: {Offset: 1 << 40, Length: 1<<31 - 1},
		}),
	}
	if v == metaV6 {
		return bad
	}
	// The sparse records after the 36-byte header: the presence bitmap,
	// then slot 0's handles.
	ok := metaPayload(v, n, slotSec, 7, uint64(tail), pagesCRC, map[int]storage.BlobHandle{5: {Offset: tail - 10, Length: 10}})
	const hdr = 36
	numSlots := 86400 / slotSec
	edit := func(fn func(b []byte) []byte) []byte { return fn(slices.Clone(ok)) }
	bad["a slot past the last"] = edit(func(b []byte) []byte {
		b[hdr+(numSlots+7)/8-1] |= 0x80
		return b
	})
	bad["a present slot without a list"] = edit(func(b []byte) []byte {
		b[hdr] |= 2
		return append(b, make([]byte, n.NumSegments())...)
	})
	bad["an overlong length"] = edit(func(b []byte) []byte {
		b = b[:hdr+(numSlots+7)/8]
		return append(append(b, 0x80, 0x00), make([]byte, n.NumSegments()-1)...)
	})
	bad["a gap before the blob file"] = metaPayload(v, n, slotSec, 7, uint64(tail), pagesCRC, map[int]storage.BlobHandle{
		5: {Offset: -1, Length: 10},
	})
	return bad
}

// TestLoadRejectsUntrustworthyCounts: a meta of either layout whose
// checksums all hold but whose day count or handles are out of bounds,
// or whose sparse records are not in their one canonical form, is
// corrupt, and the same meta with sane values loads.
func TestLoadRejectsUntrustworthyCounts(t *testing.T) {
	n := testNetwork(t)
	_, mem, meta := savedIndex(t)
	idx, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(meta))
	if err != nil {
		t.Fatal(err)
	}
	tail := idx.blob.Tail()
	pagesCRC, err := idx.pool.Checksum(tail)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{metaV6, metaVersion} {
		for name, bad := range badMetaPayloads(v, n, 300, tail, pagesCRC) {
			_, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(framed(metaMagic, v, bad)))
			if xerr.KindOf(err) != xerr.KindCorrupt {
				t.Fatalf("v%d %s: load error %v, want KindCorrupt", v, name, err)
			}
		}
		ok := metaPayload(v, n, 300, 7, uint64(tail), pagesCRC, map[int]storage.BlobHandle{5: {Offset: tail - 10, Length: 10}})
		x, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(framed(metaMagic, v, ok)))
		if err != nil {
			t.Fatalf("v%d in-bounds meta: %v", v, err)
		}
		if h := x.liveHandles().at(0, 5); h != (storage.BlobHandle{Offset: tail - 10, Length: 10}) {
			t.Fatalf("v%d: loaded handle %+v", v, h)
		}
	}
}

// denseMeta is the version 6 meta of x, as the build before version 7
// wrote it.
func denseMeta(t testing.TB, x *Index) []byte {
	t.Helper()
	tail := x.blob.Tail()
	pagesCRC, err := x.pool.Checksum(tail)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fw := storage.NewChecksumWriter(&b, metaMagic, metaV6)
	fw.Uint32(uint32(x.slotSec))
	fw.Uint32(uint32(x.days))
	fw.Uint64(uint64(x.baseDate.Unix()))
	fw.Uint32(uint32(x.net.NumSegments()))
	fw.Uint64(uint64(tail))
	fw.Uint32(pagesCRC)
	handles := x.liveHandles()
	for slot := range handles {
		for seg := 0; seg < x.net.NumSegments(); seg++ {
			hd := handles.at(slot, seg)
			fw.Uint64(uint64(hd.Offset))
			fw.Uint32(uint32(hd.Length))
		}
	}
	if err := fw.Finish(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestMetaV6Upgrade: a version 6 meta — an index with a compacted key
// at the blob tail among them — loads into the handle table it was
// written from, and the loaded index saves the version 7 meta that the
// index itself saves.
func TestMetaV6Upgrade(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	mem := storage.NewMemStore()
	idx, err := Build(n, ds, Config{SlotSeconds: 300, Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	mt := &ds.Matched[0]
	v := mt.Visits[0]
	slot := slotOf(idx, v.Enter(ds.DayStart(mt.Day)))
	if err := idx.AppendDelta([]DeltaObs{{Seg: v.Segment, Slot: slot, Day: mt.Day, Taxi: 31}}); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.CompactDeltasBudget(0); err != nil {
		t.Fatal(err)
	}
	if h := idx.liveHandles().at(slot, int(v.Segment)); h.Offset+int64(h.Length) != idx.blob.Tail() {
		t.Fatalf("the compacted key's blob %+v is not at the tail %d", h, idx.blob.Tail())
	}
	var sparse bytes.Buffer
	if err := idx.SaveMeta(&sparse); err != nil {
		t.Fatal(err)
	}
	if err := idx.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	dense := denseMeta(t, idx)
	if len(sparse.Bytes()) >= len(dense)/4 {
		t.Fatalf("the sparse meta is %d bytes against the dense %d", sparse.Len(), len(dense))
	}
	old, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(dense))
	if err != nil {
		t.Fatal(err)
	}
	if want, got := idx.liveHandles(), old.liveHandles(); !reflect.DeepEqual(got, want) {
		t.Fatal("a version 6 meta loads a different handle table")
	}
	var again bytes.Buffer
	if err := old.SaveMeta(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), sparse.Bytes()) {
		t.Fatal("an index loaded from version 6 saves a different version 7 meta")
	}
}

// TestLoadMetaAllocatesByBytesRead: a version 7 meta whose checksums
// hold and whose bitmap marks every slot present, in a few hundred
// bytes, fails without allocating the rows it promises, from a stream
// and from a file alike.
func TestLoadMetaAllocatesByBytesRead(t *testing.T) {
	n := testNetwork(t)
	_, mem, _ := savedIndex(t)
	numSlots := 86400 / 300
	p := metaPayload(metaVersion, n, 300, 7, 1, 0, nil)
	p = append(p[:len(p)-(numSlots+7)/8], bytes.Repeat([]byte{0xff}, (numSlots+7)/8)...)
	p = append(p, make([]byte, 300)...)
	blob := framed(metaMagic, metaVersion, p)
	path := filepath.Join(t.TempDir(), "meta")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dense := int64(numSlots * n.NumSegments() * 16)
	for name, r := range map[string]io.Reader{"stream": bytes.NewReader(blob), "file": f} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadIndex(n, Config{Store: mem}, r)
		runtime.ReadMemStats(&after)
		if xerr.KindOf(err) != xerr.KindCorrupt {
			t.Fatalf("%s: load error %v, want KindCorrupt", name, err)
		}
		if got := int64(after.TotalAlloc - before.TotalAlloc); got > 64<<10 || got > dense/4 {
			t.Fatalf("%s: loading a %d-byte meta allocated %d bytes (all rows: %d)", name, len(blob), got, dense)
		}
	}
}

// FuzzLoadMeta: no meta records of either layout, framed with a valid
// checksum (the frame itself is FuzzFrame's), panic LoadIndex, and an
// index it returns has a day count below maxDays and every handle
// inside a blob tail the page store holds — so no list it serves can
// ask for more memory than the store has bytes. Every list it locates
// then reads without a panic, and it saves a version 7 meta that loads
// back to the same handle table (a version 7 input byte for byte).
func FuzzLoadMeta(f *testing.F) {
	const slotSec = 21600 // 4 slots keep the metas small enough to mutate
	n := testNetwork(f)
	_, mem, meta := savedIndexAt(f, slotSec)
	idx, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(meta))
	if err != nil {
		f.Fatal(err)
	}
	tail := idx.blob.Tail()
	pagesCRC, err := idx.pool.Checksum(tail)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, payloadOf(meta))
	f.Add(false, payloadOf(meta)[:len(payloadOf(meta))-2]) // ends inside a handle
	dense := payloadOf(denseMeta(f, idx))
	f.Add(true, dense)
	f.Add(true, dense[:len(dense)-6])
	for _, v := range []uint16{metaV6, metaVersion} {
		for _, bad := range badMetaPayloads(v, n, slotSec, tail, pagesCRC) {
			f.Add(v == metaV6, bad)
		}
	}
	storeBytes := mem.NumPages() * storage.PageSize
	f.Fuzz(func(t *testing.T, v6 bool, payload []byte) {
		v := uint16(metaVersion)
		if v6 {
			v = metaV6
		}
		in := framed(metaMagic, v, payload)
		x, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(in))
		if err != nil {
			return
		}
		if x.Days() <= 0 || x.Days() >= maxDays {
			t.Fatalf("loaded an index of %d days", x.Days())
		}
		tail := x.blob.Tail()
		if tail > storeBytes {
			t.Fatalf("loaded a blob tail of %d past the store's %d bytes", tail, storeBytes)
		}
		handles := x.liveHandles()
		for slot := range handles {
			for seg := 0; seg < n.NumSegments(); seg++ {
				h := handles.at(slot, seg)
				if h.Offset < 0 || h.Length < 0 || h.Offset+int64(h.Length) > tail {
					t.Fatalf("slot %d seg %d: handle %+v outside the tail %d", slot, seg, h, tail)
				}
				if !h.IsZero() {
					x.timeListBitsAt(roadnet.SegmentID(seg), slot)
				}
			}
		}
		var out bytes.Buffer
		if err := x.SaveMeta(&out); err != nil {
			t.Fatal(err)
		}
		if !v6 && !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("a loaded meta saves back differently (%d bytes in, %d out)", len(in), out.Len())
		}
		y, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("a saved meta does not load: %v", err)
		}
		for slot := range handles {
			for seg := 0; seg < n.NumSegments(); seg++ {
				if a, b := handles.at(slot, seg), y.liveHandles().at(slot, seg); a.Length > 0 && a != b || a.Length == 0 && b.Length != 0 {
					t.Fatalf("slot %d seg %d: handle %+v saves and loads as %+v", slot, seg, a, b)
				}
			}
		}
	})
}
