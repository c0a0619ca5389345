package conindex

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"streach/internal/roadnet"
	"streach/internal/storage"
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

// TestLoadAllocatesByBytesRead: a conindex.bin whose checksums hold but
// whose header claims 1-second slots and carries no statistics must fail
// without allocating the 86 400 × 112 statistics it promises (160 MB),
// from a stream and from a file alike: the arrays are sized by what the
// file can hold.
func TestLoadAllocatesByBytesRead(t *testing.T) {
	n := testNetwork(t)
	blob := framed(conMagic, conVersion, u32s(1, uint32(n.NumSegments())))
	for name, r := range streamAndFile(t, blob) {
		var err error
		got := allocatedBy(func() { _, err = Load(n, r) })
		if xerr.KindOf(err) != xerr.KindCorrupt {
			t.Fatalf("%s: a header-only blob loaded or failed unmarked: %v", name, err)
		}
		if got > 1<<20 {
			t.Fatalf("%s: loading a %d-byte blob allocated %d bytes", name, len(blob), got)
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

// fuzzIndex is a small Con-Index for the fuzz target: 6-hour slots, so
// its statistics are 7 KB and a Load is cheap enough to run per input.
func fuzzIndex(f *testing.F) (*roadnet.Network, *Index) {
	n := testNetwork(f)
	idx, err := Build(n, testDataset(f, n), Config{SlotSeconds: 21600})
	if err != nil {
		f.Fatal(err)
	}
	return n, idx
}

// FuzzLoadConIndex: no records, framed with a valid checksum (the frame
// itself is FuzzFrame's), panic Load, and a blob Load accepts holds one
// statistic per (slot, segment) and re-saves byte for byte.
func FuzzLoadConIndex(f *testing.F) {
	n, idx := fuzzIndex(f)
	var saved bytes.Buffer
	if err := idx.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(payloadOf(saved.Bytes()))
	f.Add(u32s(1, uint32(n.NumSegments())))
	f.Fuzz(func(t *testing.T, payload []byte) {
		blob := framed(conMagic, conVersion, payload)
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
		if !bytes.Equal(out.Bytes(), blob) {
			t.Fatalf("a loaded blob re-saves differently (%d bytes in, %d out)", len(blob), out.Len())
		}
	})
}
