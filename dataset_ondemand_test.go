package streach

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"streach/internal/traj"
)

// TestOpenedSystemHoldsNoDataset: a system opened from a directory keeps
// its indexes and the dataset's statistics, not the trajectories, and
// everything that wants the trajectories still works by reading
// dataset.bin when asked.
func TestOpenedSystemHoldsNoDataset(t *testing.T) {
	built, opened := smallSystem(t), variant(t, vcfg{planCache: -1, saved: true})
	if opened.ds != nil {
		t.Fatal("an opened system retains the decoded dataset")
	}
	if got, want := opened.Stats(), built.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want the built system's %+v", got, want)
	}
	if got, want := opened.dsStats, built.ds.Stats(); got != want {
		t.Fatalf("dataset statistics = %+v, want ds.Stats() = %+v", got, want)
	}
	if ds := opened.Dataset(); !reflect.DeepEqual(ds, built.ds) {
		t.Fatal("Dataset() of the opened system differs from the dataset it was saved from")
	}

	// Save into another directory copies dataset.bin as it is; the copy
	// opens into an equivalent system.
	other := t.TempDir()
	if err := opened.Save(other); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(opened.dir, fileDataset))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := os.ReadFile(filepath.Join(other, fileDataset))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatalf("Save copied dataset.bin inexactly: %d bytes, source has %d", len(dst), len(src))
	}
	again := variant(t, vcfg{planCache: -1, dir: other})
	if again.Stats() != built.Stats() {
		t.Fatalf("reopened copy: Stats() = %+v, want %+v", again.Stats(), built.Stats())
	}
	checkOracle(t, reference(t), serial(again), requestMatrix(built, 11*time.Hour).full)

	// Save into the directory the system lives in must leave dataset.bin
	// alone, however the path is spelled — creating it would truncate the
	// only copy.
	if err := again.Save(other + string(filepath.Separator) + "."); err != nil {
		t.Fatal(err)
	}
	if dst, err = os.ReadFile(filepath.Join(other, fileDataset)); err != nil || !bytes.Equal(src, dst) {
		t.Fatalf("Save into the system's own directory damaged dataset.bin (%d bytes, err %v)", len(dst), err)
	}
}

// TestBusiestLocationWithoutDatasetFile: after the open, the pick and the
// queries an opened system answers read its indexes only. With
// dataset.bin deleted, every pick equals the built system's, logs
// nothing, leaves the decoded-list cache as it was, and the requests
// around it answer as the reference does; only Dataset() misses the file.
func TestBusiestLocationWithoutDatasetFile(t *testing.T) {
	built, opened := smallSystem(t), variant(t, vcfg{planCache: -1, saved: true})
	if err := os.Remove(filepath.Join(opened.dir, fileDataset)); err != nil {
		t.Fatal(err)
	}
	logBuf := captureLog(t)
	for _, tod := range []time.Duration{11 * time.Hour, 8*time.Hour + 7*time.Minute, 3 * time.Hour, 17 * time.Hour} {
		cache := opened.st.CacheStats()
		if got, want := opened.BusiestLocation(tod), built.BusiestLocation(tod); got != want {
			t.Fatalf("BusiestLocation(%v) = %+v without the file, %+v built", tod, got, want)
		}
		if opened.st.CacheStats() != cache {
			t.Fatalf("BusiestLocation(%v) moved the decoded-list cache", tod)
		}
	}
	checkOracle(t, reference(t), serial(opened), requestMatrix(built, 11*time.Hour).full)
	if logBuf.Len() != 0 {
		t.Fatalf("picks and queries logged:\n%s", logBuf.String())
	}
	if opened.Dataset() != nil {
		t.Fatal("Dataset() of a system whose file is gone should be nil")
	}
}

// TestOpenRebuildsBothIndexesFromDatasetFile: with stindex.meta and
// conindex.bin both damaged, the open decodes dataset.bin for the cold
// rebuilds, answers as the undamaged system does, and still retains no
// dataset.
func TestOpenRebuildsBothIndexesFromDatasetFile(t *testing.T) {
	built := smallSystem(t)
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{fileSTMeta, fileConIndex} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x04
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	logBuf := captureLog(t)
	sys := variant(t, vcfg{planCache: -1, dir: dir})
	if n := strings.Count(logBuf.String(), "cold rebuild from trajectories"); n != 2 {
		t.Fatalf("want both indexes cold-rebuilt, log says:\n%s", logBuf.String())
	}
	if sys.ds != nil {
		t.Fatal("the dataset decoded for the rebuilds outlived the open")
	}
	checkOracle(t, reference(t), serial(sys), requestMatrix(built, 11*time.Hour).full)
}

// datasetV2 is ds in version 2 of dataset.bin, the unframed layout
// earlier builds wrote:
//
//	magic "STRJ" | version u16 | baseDate unix s i64 | days u32 | ntraj u32
//	per trajectory: taxi i32 | day i16 | nvisits u32
//	per visit: segment i32 | enter day-ms u32 | exit day-ms u32 | speed f32
func datasetV2(ds *traj.Dataset) []byte {
	le := binary.LittleEndian
	b := le.AppendUint16([]byte("STRJ"), 2)
	b = le.AppendUint64(b, uint64(ds.BaseDate.Unix()))
	b = le.AppendUint32(b, uint32(ds.Days))
	b = le.AppendUint32(b, uint32(len(ds.Matched)))
	for _, mt := range ds.Matched {
		b = le.AppendUint32(b, uint32(mt.Taxi))
		b = le.AppendUint16(b, uint16(mt.Day))
		b = le.AppendUint32(b, uint32(len(mt.Visits)))
		for _, v := range mt.Visits {
			b = le.AppendUint32(b, uint32(v.Segment))
			b = le.AppendUint32(b, uint32(v.EnterMs))
			b = le.AppendUint32(b, uint32(v.ExitMs))
			b = le.AppendUint32(b, math.Float32bits(v.Speed))
		}
	}
	return b
}

// TestOpenSystemRejectsDamagedDataset: the structural walk fails the
// open on what the full decode fails on, with the same words, and as
// CorruptData — on a version 2 file at every kind of cut or with bytes
// after its end, and on the
// version 3 file Save writes wherever its frame is damaged.
func TestOpenSystemRejectsDamagedDataset(t *testing.T) {
	built := smallSystem(t)
	src := t.TempDir()
	if err := built.Save(src); err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join(src, fileDataset))
	if err != nil {
		t.Fatal(err)
	}
	data := datasetV2(built.ds)
	firstVisits := 22 + 10 + 16*len(built.ds.Matched[0].Visits)
	badMagic := append([]byte("JRTS"), data[4:]...)
	badVersion := append(append([]byte{}, data[:4]...), append([]byte{9, 0}, data[6:]...)...)
	flipped := bytes.Clone(v3)
	flipped[len(v3)/2] ^= 0x20
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"bad magic", `traj: bad magic "JRTS"`, badMagic},
		{"bad version", "traj: unsupported version 9", badVersion},
		{"empty", "traj: read magic: EOF", nil},
		{"cut in the header", "traj: read days: unexpected EOF", data[:16]},
		{"cut between trajectories", "traj: trajectory 1: EOF", data[:firstVisits]},
		{"cut inside a visit field", "traj: trajectory 0 visit 2: unexpected EOF", data[:22+10+2*16+5]},
		{"cut between visit fields", "traj: trajectory 0 visit 2: EOF", data[:22+10+2*16+8]},
		{"last byte missing", "unexpected EOF", data[:len(data)-1]},
		{"16 bytes after the end", "declared trajectories", append(bytes.Clone(data), bytes.Repeat([]byte{0xa5}, 16)...)},
		{"v3 cut in the header", "traj: read header: storage: STRJ frame: truncated at byte 16", v3[:16]},
		{"v3 flipped bit", "storage: STRJ frame: checksum mismatch", flipped},
		{"v3 last byte missing", "storage: STRJ frame: truncated", v3[:len(v3)-1]},
		{"v3 byte after the end", "storage: STRJ frame: bytes after the end marker", append(bytes.Clone(v3), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, src, dir)
			if err := os.WriteFile(filepath.Join(dir, fileDataset), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := traj.ScanDataset(bytes.NewReader(tc.data), nil); err == nil {
				t.Fatal("the structural walk passed the damage")
			} else if _, derr := traj.ReadDataset(bytes.NewReader(tc.data)); derr == nil || derr.Error() != err.Error() {
				t.Fatalf("the full decode says %v, the structural walk %v", derr, err)
			}
			sys, err := OpenSystem(dir, DefaultIndexConfig())
			if err == nil {
				sys.Close()
				t.Fatal("a damaged dataset.bin opened")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want it to say %q", err, tc.want)
			}
			if CodeOf(err) != CorruptData {
				t.Fatalf("error %q is %v, want CorruptData", err, CodeOf(err))
			}
		})
	}
}
