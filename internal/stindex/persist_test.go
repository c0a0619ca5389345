package stindex

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
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

// metaPayload writes a meta's records by hand. Handles not in set are
// zero.
func metaPayload(n *roadnet.Network, slotSec int, days uint32, tail uint64, pagesCRC uint32, set map[int]storage.BlobHandle) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(slotSec))
	b = binary.LittleEndian.AppendUint32(b, days)
	b = binary.LittleEndian.AppendUint64(b, uint64(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).Unix()))
	b = binary.LittleEndian.AppendUint32(b, uint32(n.NumSegments()))
	b = binary.LittleEndian.AppendUint64(b, tail)
	b = binary.LittleEndian.AppendUint32(b, pagesCRC)
	for i := 0; i < 86400/slotSec*n.NumSegments(); i++ {
		h := set[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(h.Offset))
		b = binary.LittleEndian.AppendUint32(b, uint32(h.Length))
	}
	return b
}

// badMetaPayloads are meta records whose counts would, if trusted, make
// the first probe allocate gigabytes.
func badMetaPayloads(n *roadnet.Network, slotSec int, tail int64, pagesCRC uint32) map[string][]byte {
	return map[string][]byte{
		"days 1<<30": metaPayload(n, slotSec, 1<<30, uint64(tail), pagesCRC, nil),
		"handle past the tail": metaPayload(n, slotSec, 7, uint64(tail), pagesCRC, map[int]storage.BlobHandle{
			5: {Offset: 1 << 40, Length: 1<<31 - 1},
		}),
		"negative handle length": metaPayload(n, slotSec, 7, uint64(tail), pagesCRC, map[int]storage.BlobHandle{
			5: {Offset: 1, Length: -1},
		}),
		"tail past the page store": metaPayload(n, slotSec, 7, 1<<41, pagesCRC, map[int]storage.BlobHandle{
			5: {Offset: 1 << 40, Length: 1<<31 - 1},
		}),
	}
}

// TestLoadRejectsUntrustworthyCounts: a meta whose checksums all hold
// but whose day count or handles are out of bounds is corrupt, and the
// same meta with sane values loads.
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
	for name, bad := range badMetaPayloads(n, 300, tail, pagesCRC) {
		_, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(framed(metaMagic, metaVersion, bad)))
		if xerr.KindOf(err) != xerr.KindCorrupt {
			t.Fatalf("%s: load error %v, want KindCorrupt", name, err)
		}
	}
	ok := metaPayload(n, 300, 7, uint64(tail), pagesCRC, map[int]storage.BlobHandle{5: {Offset: tail - 10, Length: 10}})
	if _, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(framed(metaMagic, metaVersion, ok))); err != nil {
		t.Fatalf("in-bounds meta: %v", err)
	}
}

// FuzzLoadMeta: no meta records, framed with a valid checksum (the frame
// itself is FuzzFrame's), panic LoadIndex, and an index it returns
// has a day count below maxDays and every handle inside a blob tail the
// page store holds — so no list it serves can ask for more memory than
// the store has bytes. Every list it locates then reads without a panic.
func FuzzLoadMeta(f *testing.F) {
	const slotSec = 21600 // 4 slots keep the metas small enough to mutate
	n := testNetwork(f)
	_, mem, meta := savedIndexAt(f, slotSec)
	idx, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(meta))
	if err != nil {
		f.Fatal(err)
	}
	pagesCRC, err := idx.pool.Checksum(idx.blob.Tail())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payloadOf(meta))
	f.Add(payloadOf(meta)[:len(payloadOf(meta))-6]) // ends inside a handle
	for _, bad := range badMetaPayloads(n, slotSec, idx.blob.Tail(), pagesCRC) {
		f.Add(bad)
	}
	storeBytes := mem.NumPages() * storage.PageSize
	f.Fuzz(func(t *testing.T, payload []byte) {
		x, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(framed(metaMagic, metaVersion, payload)))
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
	})
}
