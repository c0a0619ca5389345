package stindex

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
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

// withMetaVersion rewrites a saved meta's version field and re-seals its
// checksum. v4 and v5 share a layout, so this turns a v5 meta into the
// v4 meta a binary before the packed format would have saved.
func withMetaVersion(meta []byte, ver uint16) []byte {
	out := slices.Clone(meta)
	binary.LittleEndian.PutUint16(out[4:6], ver)
	h := storage.NewChecksum()
	h.Write(out[:len(out)-4])
	binary.LittleEndian.PutUint32(out[len(out)-4:], h.Sum32())
	return out
}

// legacyIndex builds the dataset's index over store, rewrites every time
// list in a legacy format — v1 and v2 by turns — and returns a v4 meta
// for it: the index a binary before the packed format wrote.
func legacyIndex(t *testing.T, n *roadnet.Network, ds *traj.Dataset, store storage.Store) []byte {
	t.Helper()
	idx, err := Build(n, ds, Config{SlotSeconds: 300, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	old, nseg := idx.liveHandles(), n.NumSegments()
	next := make(handleTable, len(old))
	for slot := range old {
		for seg := 0; seg < nseg; seg++ {
			h := old.at(slot, seg)
			if h.IsZero() {
				continue
			}
			b, err := idx.decodeHandle(h, idx.blob.Read, roadnet.SegmentID(seg), slot)
			if err != nil {
				t.Fatal(err)
			}
			encode := encodeTimeListRun
			if (slot+seg)%2 == 1 {
				encode = encodeTimeListBitsRun
			}
			nh, err := idx.blob.Append(encode(tuplesFromBits(slot, seg, b)))
			if err != nil {
				t.Fatal(err)
			}
			next.set(slot, seg, nseg, nh)
		}
	}
	idx.live.handles.Store(&next)
	var meta bytes.Buffer
	if err := idx.SaveMeta(&meta); err != nil {
		t.Fatal(err)
	}
	if err := idx.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	return withMetaVersion(meta.Bytes(), 4)
}

// TestLegacyIndexAnswersAsPacked: an index of v1 and v2 blobs under a v4
// meta loads, decodes and matches exactly as the packed build of the
// same dataset, and a compaction rewrites the lists it folds into the
// bytes the packed index writes for them.
func TestLegacyIndexAnswersAsPacked(t *testing.T) {
	n := testNetwork(t)
	ds := testDataset(t, n)
	packed := buildIndex(t, n, ds)
	defer packed.Close()
	mem := storage.NewMemStore()
	legacy, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(legacyIndex(t, n, ds, mem)))
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()

	formats := map[string]int{}
	for slot := 0; slot < packed.NumSlots(); slot++ {
		for seg := 0; seg < n.NumSegments(); seg++ {
			if h := legacy.liveHandles().at(slot, seg); !h.IsZero() {
				blob, err := legacy.blob.Read(h)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case isPackedBlob(blob):
					formats["packed"]++
				case isBitsBlob(blob):
					formats["v2"]++
				default:
					formats["v1"]++
				}
			}
			want, err := packed.TimeListBitsAt(roadnet.SegmentID(seg), slot)
			if err != nil {
				t.Fatal(err)
			}
			got, err := legacy.TimeListBitsAt(roadnet.SegmentID(seg), slot)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seg %d slot %d: legacy decodes %+v, packed %+v", seg, slot, got, want)
			}
		}
	}
	if formats["packed"] != 0 || formats["v1"] == 0 || formats["v2"] == 0 {
		t.Fatalf("fixture holds %v blobs, want v1 and v2 only", formats)
	}

	const startSlot = 114
	sets := NewMatchSets(ds.Days, startSetsOf(t, packed, busiest(t, packed, startSlot, 3), startSlot))
	mp, ml := packed.NewMatcher(sets), legacy.NewMatcher(sets)
	nonzero := 0
	for seg := 0; seg < n.NumSegments(); seg++ {
		want, err := mp.Match(roadnet.SegmentID(seg), startSlot, startSlot+4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ml.Match(roadnet.SegmentID(seg), startSlot, startSlot+4)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seg %d: legacy matches %d days, packed %d", seg, got, want)
		}
		if want > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("no segment matched a day; the comparison compares nothing")
	}

	obs := testDeltaObs(packed)
	for _, x := range []*Index{packed, legacy} {
		if err := x.AppendDelta(obs); err != nil {
			t.Fatal(err)
		}
		if _, err := x.CompactDeltas(); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range obs {
		hp := packed.liveHandles().at(o.Slot, int(o.Seg))
		hl := legacy.liveHandles().at(o.Slot, int(o.Seg))
		want, err := packed.blob.Read(hp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := legacy.blob.Read(hl)
		if err != nil {
			t.Fatal(err)
		}
		if !isPackedBlob(got) || !bytes.Equal(got, want) {
			t.Fatalf("seg %d slot %d: compacted legacy blob %x, packed %x", o.Seg, o.Slot, got, want)
		}
	}
}

// TestMetaV5RoundTrip: a fresh index saves a v5 meta, and the loaded
// index saves it back byte for byte.
func TestMetaV5RoundTrip(t *testing.T) {
	n := testNetwork(t)
	_, mem, meta := savedIndex(t)
	if v := binary.LittleEndian.Uint16(meta[4:6]); v != 5 {
		t.Fatalf("saved meta version %d, want 5", v)
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
		t.Fatal("a loaded v5 meta saves back different bytes")
	}
}

// v2Meta writes a v2 meta by hand: no checksums, so LoadIndex has only
// its bounds checks to go on. Handles not in set are zero.
func v2Meta(n *roadnet.Network, slotSec int, days uint32, tail uint64, set map[int]storage.BlobHandle) []byte {
	var b []byte
	b = append(b, metaMagic...)
	b = binary.LittleEndian.AppendUint16(b, 2)
	b = binary.LittleEndian.AppendUint32(b, uint32(slotSec))
	b = binary.LittleEndian.AppendUint32(b, days)
	b = binary.LittleEndian.AppendUint64(b, uint64(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).Unix()))
	b = binary.LittleEndian.AppendUint32(b, uint32(n.NumSegments()))
	b = binary.LittleEndian.AppendUint64(b, tail)
	numHandles := 86400 / slotSec * n.NumSegments()
	b = binary.LittleEndian.AppendUint32(b, uint32(numHandles))
	for i := 0; i < numHandles; i++ {
		h := set[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(h.Offset))
		b = binary.LittleEndian.AppendUint32(b, uint32(h.Length))
	}
	return b
}

// badV2Metas are v2 metas whose counts would, if trusted, make the first
// probe allocate gigabytes.
func badV2Metas(n *roadnet.Network, slotSec int, tail int64) map[string][]byte {
	return map[string][]byte{
		"days 1<<30": v2Meta(n, slotSec, 1<<30, uint64(tail), nil),
		"handle past the tail": v2Meta(n, slotSec, 7, uint64(tail), map[int]storage.BlobHandle{
			5: {Offset: 1 << 40, Length: 1<<31 - 1},
		}),
		"negative handle length": v2Meta(n, slotSec, 7, uint64(tail), map[int]storage.BlobHandle{
			5: {Offset: 1, Length: -1},
		}),
		"tail past the page store": v2Meta(n, slotSec, 7, 1<<41, map[int]storage.BlobHandle{
			5: {Offset: 1 << 40, Length: 1<<31 - 1},
		}),
	}
}

// TestLoadRejectsUntrustworthyCounts: a checksum-less meta whose day
// count or handles are out of bounds is corrupt, and the same meta with
// sane values loads.
func TestLoadRejectsUntrustworthyCounts(t *testing.T) {
	n := testNetwork(t)
	_, mem, meta := savedIndex(t)
	idx, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(meta))
	if err != nil {
		t.Fatal(err)
	}
	tail := idx.blob.Tail()
	for name, bad := range badV2Metas(n, 300, tail) {
		_, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(bad))
		if xerr.KindOf(err) != xerr.KindCorrupt {
			t.Fatalf("%s: load error %v, want KindCorrupt", name, err)
		}
	}
	ok := v2Meta(n, 300, 7, uint64(tail), map[int]storage.BlobHandle{5: {Offset: tail - 10, Length: 10}})
	if _, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(ok)); err != nil {
		t.Fatalf("in-bounds v2 meta: %v", err)
	}
}

// FuzzLoadMeta: no meta bytes panic LoadIndex, and an index it returns
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
	f.Add(meta)
	f.Add(withMetaVersion(meta, 4))
	for _, bad := range badV2Metas(n, slotSec, idx.blob.Tail()) {
		f.Add(bad)
	}
	storeBytes := mem.NumPages() * storage.PageSize
	f.Fuzz(func(t *testing.T, meta []byte) {
		x, err := LoadIndex(n, Config{Store: mem}, bytes.NewReader(meta))
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
					x.TimeListBitsAt(roadnet.SegmentID(seg), slot)
				}
			}
		}
	})
}
