package streach

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"streach/internal/stindex"
	"streach/internal/storage"
)

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

// TestLoadersAllocateByBytesRead: a derived file whose checksums hold
// but whose header claims far more records than it carries fails
// without allocating what the header promises, from a stream and from a
// file alike: the loaders size their arrays by what the frame can still
// hold. (The Con-Index files have the same case in their package.)
func TestLoadersAllocateByBytesRead(t *testing.T) {
	net := smallSystem(t).Network()
	nseg := uint32(net.NumSegments())
	meta := func(slotSec, days uint32) []byte {
		var p []byte
		p = binary.LittleEndian.AppendUint32(p, slotSec)
		p = binary.LittleEndian.AppendUint32(p, days)
		p = binary.LittleEndian.AppendUint64(p, 0)
		p = binary.LittleEndian.AppendUint32(p, nseg)
		p = binary.LittleEndian.AppendUint64(p, 0)
		p = binary.LittleEndian.AppendUint32(p, 0)
		return framed("STIX", 6, p)
	}
	loadMeta := func(r io.Reader) error {
		_, err := stindex.LoadIndex(net, stindex.Config{Store: storage.NewMemStore()}, r)
		return err
	}
	loadShapes := func(r io.Reader) error {
		_, err := decodePlanShapes(r)
		return err
	}
	for _, row := range []struct {
		name string
		file []byte
		load func(io.Reader) error
	}{
		{"stindex.meta: 1-second slots, no handles", meta(1, 7), loadMeta},
		{"stindex.meta: 2^32-1 days", meta(300, 1<<32-1), loadMeta},
		{"planshapes.bin: a full ring claimed, no shapes", framed(planShapesMagic, planShapesVersion, binary.LittleEndian.AppendUint16(nil, planShapeRingCap)), loadShapes},
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
