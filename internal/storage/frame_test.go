package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"streach/internal/xerr"
)

const testMagic, testVersion = "TEST", 3

// frameOf builds a frame by the layout's definition, one chunk per
// piece, then the end marker.
func frameOf(magic string, version uint16, pieces [][]byte) []byte {
	out := binary.LittleEndian.AppendUint16([]byte(magic), version)
	crc := crc32.Update(0, castagnoliTable, out)
	for _, p := range append(pieces, nil) {
		rec := append(binary.LittleEndian.AppendUint32(nil, uint32(len(p))), p...)
		crc = crc32.Update(crc, castagnoliTable, rec)
		out = binary.LittleEndian.AppendUint32(append(out, rec...), crc)
	}
	return out
}

// refFrame is the frame of payload cut into chunks of chunk bytes.
func refFrame(magic string, version uint16, payload []byte, chunk int) []byte {
	var pieces [][]byte
	for len(payload) > 0 {
		n := min(chunk, len(payload))
		pieces, payload = append(pieces, payload[:n]), payload[n:]
	}
	return frameOf(magic, version, pieces)
}

// readAll reads a frame's payload in records of the sizes rng draws
// (1 to 40 bytes, straddling chunks), then finishes it.
func readAll(r io.Reader, rng *rand.Rand, total int) ([]byte, error) {
	fr, err := NewChecksumReader(r, testMagic, testVersion)
	if err != nil {
		return nil, err
	}
	var got []byte
	for len(got) < total {
		b := fr.Next(min(1+rng.Intn(40), total-len(got)))
		if b == nil {
			return nil, fr.Err()
		}
		got = append(got, b...)
	}
	return got, fr.Finish()
}

// TestChecksumWriterMatchesWholeFile writes record runs that straddle
// the chunk boundary in every way and checks the output is the frame of
// the bytes written, chunk for chunk, and that it reads back.
func TestChecksumWriterMatchesWholeFile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, total := range []int{0, 1, 16, frameChunk - 1, frameChunk, frameChunk + 1, 3*frameChunk + 17} {
		var want []byte
		var out bytes.Buffer
		cw := NewChecksumWriter(&out, testMagic, testVersion)
		for len(want) < total {
			n := min(1+rng.Intn(frameChunk/3), total-len(want))
			if rng.Intn(4) == 0 {
				n = min(16, total-len(want))
			}
			p := make([]byte, n)
			rng.Read(p)
			if k, err := cw.Write(p); err != nil || k != n {
				t.Fatalf("total %d: Write = %d, %v", total, k, err)
			}
			want = append(want, p...)
		}
		cw.Uint8(0xA1)
		cw.Uint16(0xB2B3)
		cw.Uint32(0xC4C5C6C7)
		cw.Uint64(0xD8D9DADBDCDDDEDF)
		want = append(want, 0xA1, 0xB3, 0xB2, 0xC7, 0xC6, 0xC5, 0xC4, 0xDF, 0xDE, 0xDD, 0xDC, 0xDB, 0xDA, 0xD9, 0xD8)
		if err := cw.Finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), refFrame(testMagic, testVersion, want, frameChunk)) {
			t.Fatalf("total %d: output differs from the frame of the bytes written", total)
		}
		got, err := readAll(bytes.NewReader(out.Bytes()), rng, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("total %d: read back %d bytes, %v", total, len(got), err)
		}
	}
}

type failAfter struct{ n int }

var errDisk = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errDisk
	}
	f.n--
	return len(p), nil
}

// TestChecksumWriterStickyError: once the destination fails, every
// later Write and Finish reports that failure.
func TestChecksumWriterStickyError(t *testing.T) {
	cw := NewChecksumWriter(&failAfter{n: 1}, testMagic, testVersion)
	big := make([]byte, 2*frameChunk+5)
	if _, err := cw.Write(big); !errors.Is(err, errDisk) {
		t.Fatalf("Write over a failing destination = %v, want %v", err, errDisk)
	}
	cw.Uint32(7)
	if _, err := cw.Write([]byte{1}); !errors.Is(err, errDisk) {
		t.Fatalf("Write after a failure = %v", err)
	}
	if err := cw.Finish(); !errors.Is(err, errDisk) {
		t.Fatalf("Finish after a failure = %v", err)
	}
	if err := NewChecksumWriter(&failAfter{}, testMagic, testVersion).Finish(); !errors.Is(err, errDisk) {
		t.Fatalf("Finish over a failing destination = %v", err)
	}
}

// TestChecksumReaderAcceptsAnyChunking: a frame cut into chunks of any
// size reads back the same payload; the typed readers decode what the
// typed writers wrote.
func TestChecksumReaderAcceptsAnyChunking(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	payload := make([]byte, 5000)
	rng.Read(payload)
	for _, chunk := range []int{1, 7, 64, 4999, 5000, frameChunk} {
		got, err := readAll(bytes.NewReader(refFrame(testMagic, testVersion, payload, chunk)), rng, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("chunks of %d: read back %d bytes, %v", chunk, len(got), err)
		}
	}
	var out bytes.Buffer
	cw := NewChecksumWriter(&out, testMagic, testVersion)
	cw.Uint8(200)
	cw.Uint16(60000)
	cw.Uint32(4e9)
	cw.Uint64(1 << 60)
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	fr, err := NewChecksumReader(&out, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if a, b, c, d := fr.Uint8(), fr.Uint16(), fr.Uint32(), fr.Uint64(); a != 200 || b != 60000 || c != 4e9 || d != 1<<60 || fr.Finish() != nil {
		t.Fatalf("typed records read back as %d %d %d %d (%v)", a, b, c, d, fr.Err())
	}
}

// TestChecksumReaderRejectsDamage: truncation at any offset — chunk
// boundaries included —, a flipped bit anywhere, bytes after the end
// marker, a payload longer or shorter than the records read, an
// oversized chunk, and a bad magic or version all fail, marked corrupt.
func TestChecksumReaderRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	payload := make([]byte, 2*frameChunk+100)
	rng.Read(payload)
	frame := refFrame(testMagic, testVersion, payload, frameChunk)
	mustFail := func(name string, data []byte, records int) {
		t.Helper()
		_, err := readAll(bytes.NewReader(data), rng, records)
		if err == nil || xerr.KindOf(err) != xerr.KindCorrupt {
			t.Fatalf("%s: error %v, want a corrupt frame", name, err)
		}
	}
	// Every cut near the header and each chunk's length, payload edges
	// and crc, and a sample of the rest.
	var cuts []int
	for _, at := range []int{0, frameHeader, frameHeader + 8 + frameChunk, frameHeader + 16 + 2*frameChunk, len(frame) - 8} {
		for d := -8; d <= 8; d++ {
			if c := at + d; c >= 0 && c < len(frame) {
				cuts = append(cuts, c)
			}
		}
	}
	for i := 0; i < 100; i++ {
		cuts = append(cuts, rng.Intn(len(frame)))
	}
	for _, c := range cuts {
		mustFail("truncated", frame[:c], len(payload))
	}
	for i := 0; i < 300; i++ {
		bit := rng.Intn(8 * len(frame))
		if i < 8*frameHeader {
			bit = i
		}
		bad := bytes.Clone(frame)
		bad[bit/8] ^= 1 << (bit % 8)
		mustFail("bit flip", bad, len(payload))
	}
	mustFail("trailing byte", append(bytes.Clone(frame), 0), len(payload))
	mustFail("a record past the payload", frame, len(payload)+1)
	mustFail("payload past the last record", frame, len(payload)-1)
	mustFail("payload past the last chunk", frame, frameChunk)
	big := refFrame(testMagic, testVersion, make([]byte, frameChunk+1), frameChunk+1)
	mustFail("oversized chunk", big, frameChunk+1)
	mustFail("bad magic", refFrame("TESU", testVersion, payload, frameChunk), len(payload))
	mustFail("old version", refFrame(testMagic, testVersion-1, payload, frameChunk), len(payload))
}

// TestChecksumReaderOlderVersions: a reader given older versions reads
// a frame of each of them, or of the current one, and reports which;
// any other version fails, marked corrupt.
func TestChecksumReaderOlderVersions(t *testing.T) {
	for _, v := range []uint16{testVersion, testVersion - 1} {
		fr, err := NewChecksumReader(bytes.NewReader(refFrame(testMagic, v, []byte{7}, frameChunk)), testMagic, testVersion, testVersion-1)
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		if b := fr.Next(1); fr.Version() != v || b == nil || b[0] != 7 || fr.Finish() != nil {
			t.Fatalf("version %d: read as version %d, record %v, %v", v, fr.Version(), b, fr.Err())
		}
	}
	_, err := NewChecksumReader(bytes.NewReader(refFrame(testMagic, testVersion-2, nil, frameChunk)), testMagic, testVersion, testVersion-1)
	if xerr.KindOf(err) != xerr.KindCorrupt {
		t.Fatalf("a version neither current nor listed: error %v, want a corrupt frame", err)
	}
}

// TestChecksumReaderRemaining: Remaining never falls below the payload
// still to come from a file; any other reader, in-memory ones included,
// vouches for the verified bytes in hand only.
func TestChecksumReaderRemaining(t *testing.T) {
	payload := make([]byte, 3*frameChunk)
	frame := refFrame(testMagic, testVersion, payload, frameChunk)
	path := filepath.Join(t.TempDir(), "frame")
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fr, err := NewChecksumReader(f, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	for left := len(payload); left > 0; left -= 1000 {
		if rem := fr.Remaining(); rem < int64(left) || rem > int64(len(frame)) {
			t.Fatalf("Remaining %d with %d payload bytes to come in a %d-byte frame", rem, left, len(frame))
		}
		fr.Next(min(1000, left))
	}
	if err := fr.Finish(); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{"bytes": bytes.NewReader(frame), "stream": io.MultiReader(bytes.NewReader(frame))} {
		fr, err := NewChecksumReader(r, testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Remaining() != 0 {
			t.Fatalf("%s: vouches for %d bytes before any chunk is read", name, fr.Remaining())
		}
		fr.Next(10)
		if fr.Remaining() != frameChunk-10 {
			t.Fatalf("%s: vouches for %d bytes with %d in hand", name, fr.Remaining(), frameChunk-10)
		}
	}
}

// FuzzFrame: no byte string panics the reader, every failure is marked
// corrupt, Remaining bounds the payload still to come by the file's
// length, and a frame the reader accepts is, byte for byte, the frame
// its payload makes under its own chunking — no byte went unchecked.
func FuzzFrame(f *testing.F) {
	path := filepath.Join(f.TempDir(), "frame")
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 40, 300} {
		p := make([]byte, n)
		rng.Read(p)
		f.Add(refFrame(testMagic, testVersion, p, frameChunk), uint8(0))
		f.Add(refFrame(testMagic, testVersion, p, 16), uint8(3))
	}
	f.Add([]byte(testMagic), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, rec uint8) {
		isCorrupt := func(err error) {
			t.Helper()
			if xerr.KindOf(err) != xerr.KindCorrupt {
				t.Fatalf("error %v not marked corrupt", err)
			}
		}
		// Pass 1: the payload, in records of n bytes, up to the first
		// record the frame cannot deliver.
		n := 1 + int(rec)%16
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		fr, err := NewChecksumReader(file, testMagic, testVersion)
		if err != nil {
			isCorrupt(err)
			return
		}
		var payload []byte
		var rem []int64
		for {
			rem = append(rem, fr.Remaining())
			b := fr.Next(n)
			if b == nil {
				break
			}
			payload = append(payload, b...)
		}
		isCorrupt(fr.Err())
		for i, r := range rem {
			if done := i * n; r < int64(len(payload)-done) || int64(done)+r > int64(len(data)) {
				t.Fatalf("record %d: Remaining %d, %d payload bytes to come, %d bytes of input", i, r, len(payload)-done, len(data))
			}
		}
		// Pass 2: the same records, then Finish.
		fr, _ = NewChecksumReader(bytes.NewReader(data), testMagic, testVersion)
		fr.Next(len(payload))
		if err := fr.Finish(); err != nil {
			isCorrupt(err)
			return
		}
		var pieces [][]byte
		for off := frameHeader; ; {
			k := int(binary.LittleEndian.Uint32(data[off:]))
			if k == 0 {
				break
			}
			pieces = append(pieces, data[off+4:off+4+k])
			off += 8 + k
		}
		if !bytes.Equal(frameOf(testMagic, testVersion, pieces), data) {
			t.Fatalf("accepted a %d-byte input that is not the frame of its payload", len(data))
		}
	})
}

// TestRewoundReadsAsTheInput: a frame whose header was read off a file
// reads back whole through Rewound, and Remaining still counts the file's
// length; over an input with no Stat it vouches for the bytes in hand.
func TestRewoundReadsAsTheInput(t *testing.T) {
	payload := make([]byte, 2*frameChunk+5)
	frame := refFrame(testMagic, testVersion, payload, frameChunk)
	path := filepath.Join(t.TempDir(), "frame")
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, r := range map[string]io.Reader{"file": f, "bytes": bytes.NewReader(frame)} {
		head := make([]byte, frameHeader)
		if _, err := io.ReadFull(r, head); err != nil {
			t.Fatal(err)
		}
		fr, err := NewChecksumReader(Rewound(head, r), testMagic, testVersion)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fr.Next(1)
		want := int64(frameChunk - 1)
		if name == "file" {
			want = int64(len(frame)) - (frameHeader + 4 + frameChunk + 4) + frameChunk - 1
		}
		if got := fr.Remaining(); got != want {
			t.Fatalf("%s: Remaining %d, want %d", name, got, want)
		}
		if !bytes.Equal(fr.Next(len(payload)-1), payload[1:]) || fr.Finish() != nil {
			t.Fatalf("%s: the rewound frame does not read back (%v)", name, fr.Err())
		}
	}
}
