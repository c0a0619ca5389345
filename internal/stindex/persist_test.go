package stindex

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"streach/internal/roadnet"
	"streach/internal/storage"
	"streach/internal/traj"
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
