package streach

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"streach/internal/stindex"
	"streach/internal/storage"
	"streach/internal/traj"
)

// framed is payload in a frame with a valid checksum.
func framed(magic string, version uint16, payload []byte) []byte {
	var b bytes.Buffer
	fw := storage.NewChecksumWriter(&b, magic, version)
	fw.Write(payload)
	fw.Finish()
	return b.Bytes()
}

// payloadOf is the payload of a frame with valid chunk lengths.
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

// TestLoadersAllocateByBytesRead: a framed file whose checksums hold
// but whose header claims far more records than it carries fails
// without allocating what the header promises, from a stream and from a
// file alike: the loaders size their arrays by what the frame can still
// hold. That covers dataset.bin, whose trajectory heads may claim four
// billion visits. (The Con-Index files have the same case in their
// package.)
func TestLoadersAllocateByBytesRead(t *testing.T) {
	net := smallSystem(t).Network()
	nseg := uint32(net.NumSegments())
	// A meta of the given version with nothing after its header but
	// rest.
	meta := func(version uint16, slotSec, days uint32, rest ...byte) []byte {
		var p []byte
		p = binary.LittleEndian.AppendUint32(p, slotSec)
		p = binary.LittleEndian.AppendUint32(p, days)
		p = binary.LittleEndian.AppendUint64(p, 0)
		p = binary.LittleEndian.AppendUint32(p, nseg)
		p = binary.LittleEndian.AppendUint64(p, 1)
		p = binary.LittleEndian.AppendUint32(p, 0)
		return framed("STIX", version, append(p, rest...))
	}
	everySlot := append(bytes.Repeat([]byte{0xff}, 288/8), make([]byte, 300)...)
	// One page, so the metas' blob tail of 1 lies inside the store.
	onePage := storage.NewMemStore()
	if _, err := onePage.Allocate(); err != nil {
		t.Fatal(err)
	}
	loadMeta := func(r io.Reader) error {
		_, err := stindex.LoadIndex(net, stindex.Config{Store: onePage}, r)
		return err
	}
	// A dataset.bin of one trajectory declaring nv visits in size bytes
	// over 64 bytes of them, or of count trajectories and nothing more.
	dataset := func(count uint32, nv, size uint64) []byte {
		p := binary.LittleEndian.AppendUint64(nil, 0)
		p = binary.LittleEndian.AppendUint32(p, 1)
		p = binary.LittleEndian.AppendUint32(p, count)
		if nv > 0 {
			for _, f := range []uint64{7, 0, nv, size} {
				p = binary.AppendUvarint(p, f)
			}
			p = append(p, make([]byte, 64)...)
		}
		return framed("STRJ", 3, p)
	}
	loadDataset := func(r io.Reader) error {
		_, err := traj.ReadDataset(r)
		return err
	}
	const nv = 1<<32 - 1
	for _, row := range []struct {
		name string
		file []byte
		load func(io.Reader) error
	}{
		{"stindex.meta v6: 1-second slots, no handles", meta(6, 1, 7), loadMeta},
		{"stindex.meta v6: 2^32-1 days", meta(6, 300, 1<<32-1), loadMeta},
		{"stindex.meta v7: 1-second slots, no bitmap", meta(7, 1, 7), loadMeta},
		{"stindex.meta v7: every slot present in 300 B", meta(7, 300, 7, everySlot...), loadMeta},
		{"dataset.bin: 2^32-1 trajectories", dataset(nv, 0, 0), loadDataset},
		{"dataset.bin: 2^32-1 visits in 6 B each", dataset(1, nv, 6*nv), loadDataset},
		{"dataset.bin: 2^32-1 visits in 64 B", dataset(1, nv, 64), loadDataset},
	} {
		path := filepath.Join(t.TempDir(), "file")
		if err := os.WriteFile(path, row.file, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, from := range []string{"stream", "file"} {
			// Allocation is counted process-wide, so another test's
			// background work can only add to it: the least of three
			// loads is the loader's.
			least := ^uint64(0)
			for try := 0; try < 3; try++ {
				var r io.Reader = bytes.NewReader(row.file)
				if from == "file" {
					f, err := os.Open(path)
					if err != nil {
						t.Fatal(err)
					}
					defer f.Close()
					r = f
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := row.load(r)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatalf("%s (%s): loaded", row.name, from)
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least > 1<<20 {
				t.Fatalf("%s (%s): loading %d bytes allocated %d", row.name, from, len(row.file), least)
			}
		}
	}
}

// TestOpenParentLayoutsAfterCompaction: testdata/v6compacted was saved
// by the build before the sparse layouts (stindex.meta v6, conindex.bin
// v3): a 4×4 city at one-hour slots whose fleet drives 07:00–12:00,
// saved, reopened, given blanketUpdates at 10:00, 11:00 and 15:00
// (three slots of 300 s), flushed and compacted durably, then closed.
// Its indexes are the only durable copy of those updates, so it must
// open without a rebuild: it logs nothing and answers bit-identically to
// an offline build over the base trajectories and the updates. Its next
// Save writes the sparse layouts, the directory opens again to the same
// answers, and saving that system elsewhere writes the same bytes.
func TestOpenParentLayoutsAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "v6compacted"), dir)
	logBuf := captureLog(t)
	open := func() *System {
		t.Helper()
		s, err := OpenSystem(dir, DefaultIndexConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if logBuf.Len() > 0 {
			t.Fatalf("the open logged:\n%s", logBuf)
		}
		return s
	}
	opened := open()
	if v := fileVersion(t, dir, fileSTMeta); v != 6 {
		t.Fatalf("the fixture's stindex.meta is version %d", v)
	}
	offline, err := NewSystemFromData(opened.Network(), unionDataset(opened.Dataset(), blanketUpdates(opened, []int{120, 132, 180})),
		IndexConfig{SlotSeconds: 3600, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer offline.Close()
	reqs := append(requestMatrix(offline, 10*time.Hour).full, requestMatrix(offline, 15*time.Hour).smoke...)
	checkOracle(t, serial(offline), serial(opened), reqs)
	if err := opened.Save(dir); err != nil {
		t.Fatal(err)
	}
	for file, want := range map[string]uint16{fileSTMeta: 7, fileConIndex: 4} {
		if v := fileVersion(t, dir, file); v != want {
			t.Fatalf("the save wrote %s version %d, want %d", file, v, want)
		}
	}
	reopened := open()
	checkOracle(t, serial(offline), serial(reopened), reqs)
	again := t.TempDir()
	if err := reopened.Save(again); err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{fileNetwork, fileDataset, filePages, fileSTMeta, fileConIndex} {
		a, errA := os.ReadFile(filepath.Join(dir, file))
		b, errB := os.ReadFile(filepath.Join(again, file))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("save, open, save: %s differs (%v, %v)", file, errA, errB)
		}
	}
}

// fileVersion is the version in the frame header of dir/file.
func fileVersion(t *testing.T, dir, file string) uint16 {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil || len(b) < 6 {
		t.Fatalf("read %s: %v (%d bytes)", file, err, len(b))
	}
	return binary.LittleEndian.Uint16(b[4:6])
}

// TestOpenSystemIgnoresLeftoverPlanShapes: earlier builds wrote a
// plan-shape hint, dir/planshapes.bin, beside the indexes. A directory
// holding one — as an earlier build saved it (testdata/planshapes.bin,
// over smallSystem's world) or as garbage — opens without a word about
// it and answers bit-identically to the same directory without it, and
// a save into it leaves the file as it was. Save itself writes none.
func TestOpenSystemIgnoresLeftoverPlanShapes(t *testing.T) {
	src := t.TempDir()
	if err := smallSystem(t).Save(src); err != nil {
		t.Fatal(err)
	}
	const leftover = "planshapes.bin"
	if _, err := os.Stat(filepath.Join(src, leftover)); !os.IsNotExist(err) {
		t.Fatalf("Save wrote %s (stat: %v)", leftover, err)
	}
	without := variant(t, vcfg{planCache: -1, dir: src})
	reqs := requestMatrix(without, 9*time.Hour).full

	saved, err := os.ReadFile(filepath.Join("testdata", leftover))
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(garbage)
	for name, file := range map[string][]byte{"saved by an earlier build": saved, "garbage": garbage} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, src, dir)
			path := filepath.Join(dir, leftover)
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			logBuf := captureLog(t)
			with := variant(t, vcfg{planCache: -1, dir: dir})
			if logBuf.Len() != 0 {
				t.Fatalf("open logged:\n%s", logBuf.String())
			}
			checkOracle(t, serial(without), serial(with), reqs)
			if err := with.Save(dir); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, file) {
				t.Fatalf("a save into the directory changed %s (read: %v)", leftover, err)
			}
			if strings.Contains(logBuf.String(), leftover) {
				t.Fatalf("the save logged about %s:\n%s", leftover, logBuf.String())
			}
		})
	}
}
