package traj

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"streach/internal/storage"
	"streach/internal/xerr"
)

// readDatasetRef is the version 2 reader this package shipped before
// ScanDataset: every field through its own io.ReadFull, one trajectory
// after another. It is the oracle the bulk reader and the structural walk
// are held to on every input that is not version 3 — same datasets, same
// errors. It changes the shipped code twice: it appends instead of
// sizing slices from the file's counts, so it can be fed hostile input,
// and it rejects bytes after the last trajectory, which the shipped
// code ignored.
func readDatasetRef(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("traj: read magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("traj: bad magic %q", magic)
	}
	var scratch [8]byte
	readU16 := func() (uint16, error) {
		if _, err := io.ReadFull(br, scratch[:2]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint16(scratch[:2]), nil
	}
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	ver, err := readU16()
	if err != nil {
		return nil, fmt.Errorf("traj: read version: %w", err)
	}
	if ver != v2Version {
		return nil, fmt.Errorf("traj: unsupported version %d", ver)
	}
	baseUnix, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("traj: read base date: %w", err)
	}
	days, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("traj: read days: %w", err)
	}
	count, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("traj: read count: %w", err)
	}
	ds := &Dataset{BaseDate: time.Unix(int64(baseUnix), 0).UTC(), Days: int(days)}
	for i := uint32(0); i < count; i++ {
		taxi, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("traj: trajectory %d: %w", i, err)
		}
		day, err := readU16()
		if err != nil {
			return nil, fmt.Errorf("traj: trajectory %d: %w", i, err)
		}
		nv, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("traj: trajectory %d: %w", i, err)
		}
		mt := MatchedTrajectory{Taxi: TaxiID(taxi), Day: Day(day), Visits: []Visit{}}
		for j := uint32(0); j < nv; j++ {
			var f [4]uint32
			for k := range f {
				if f[k], err = readU32(); err != nil {
					return nil, fmt.Errorf("traj: trajectory %d visit %d: %w", i, j, err)
				}
			}
			mt.Visits = append(mt.Visits, Visit{
				Segment: segID(f[0]),
				EnterMs: int32(f[1]),
				ExitMs:  int32(f[2]),
				Speed:   float32(bitsFloat(f[3])),
			})
		}
		ds.Matched = append(ds.Matched, mt)
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("traj: bytes after the %d declared trajectories", count)
	} else if err != io.EOF {
		return nil, fmt.Errorf("traj: after the last trajectory: %w", err)
	}
	return ds, nil
}

// encodeForTest returns ds as WriteDataset encodes it, version 3.
func encodeForTest(t testing.TB, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeV2 returns ds in version 2.
func encodeV2(t testing.TB, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeDatasetRef(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// framed is payload in a version 3 frame with valid checksums.
func framed(payload []byte) []byte {
	var b bytes.Buffer
	fw := storage.NewChecksumWriter(&b, codecMagic, codecVersion)
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

// isV3 reports whether data begins with a version 3 header.
func isV3(data []byte) bool {
	return len(data) >= 6 && string(data[:4]) == codecMagic && binary.LittleEndian.Uint16(data[4:6]) == codecVersion
}

// blockErr matches a version 3 failure inside a trajectory's visits.
var blockErr = regexp.MustCompile(`^traj: trajectory \d+ (visit \d+|block):`)

// checkAgainstRef holds ReadDataset and the structural walk to their
// oracle on one input. A version 3 input is held to the writer: one it
// accepts re-encodes to the same bytes, the walk reports its Stats, and
// both fail with the same words unless the walk, which decodes no visit,
// passes a block whose checksums hold and whose visits do not decode.
// Any other input is held to the version 2 reference reader: all three
// accept or all three reject with the same message, the datasets are
// equal bit for bit (speeds included, NaNs too), and both scans report
// the reference's Stats. Every rejection is marked KindCorrupt.
func checkAgainstRef(t testing.TB, data []byte) {
	t.Helper()
	got, gotErr := ReadDataset(bytes.NewReader(data))
	base, stats, walkErr := ScanDataset(bytes.NewReader(data), nil)
	for _, err := range []error{gotErr, walkErr} {
		if err != nil && xerr.KindOf(err) != xerr.KindCorrupt {
			t.Fatalf("failure not marked corrupt: %v", err)
		}
	}
	if isV3(data) {
		// The walk decodes no block: past one that fails to decode it
		// reads on, and accepts or fails further on.
		inBlock := gotErr != nil && blockErr.MatchString(gotErr.Error())
		switch {
		case gotErr == nil && walkErr == nil:
			if !base.Equal(got.BaseDate) || stats != got.Stats() {
				t.Fatalf("structural walk: base %v stats %+v, want %v %+v", base, stats, got.BaseDate, got.Stats())
			}
			if again := encodeForTest(t, got); !bytes.Equal(again, data) {
				t.Fatalf("an accepted file re-encodes differently (%d bytes in, %d out)", len(data), len(again))
			}
		case gotErr == nil:
			t.Fatalf("the structural walk rejected what ReadDataset accepted: %v", walkErr)
		case inBlock:
		case walkErr == nil:
			t.Fatalf("the structural walk accepted a file ReadDataset rejected outside the visits: %v", gotErr)
		case gotErr.Error() != walkErr.Error():
			t.Fatalf("error text differs:\n ReadDataset %v\n walk        %v", gotErr, walkErr)
		}
		return
	}
	want, wantErr := readDatasetRef(bytes.NewReader(data))
	if (wantErr == nil) != (gotErr == nil) || (wantErr == nil) != (walkErr == nil) {
		t.Fatalf("reference err %v, ReadDataset err %v, structural walk err %v", wantErr, gotErr, walkErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() || walkErr.Error() != wantErr.Error() {
			t.Fatalf("error text differs:\n reference   %v\n ReadDataset %v\n walk        %v", wantErr, gotErr, walkErr)
		}
		if errors.Is(wantErr, io.ErrUnexpectedEOF) != errors.Is(gotErr, io.ErrUnexpectedEOF) {
			t.Fatalf("error chain differs: reference %v, ReadDataset %v", wantErr, gotErr)
		}
		return
	}
	if !got.BaseDate.Equal(want.BaseDate) || got.Days != want.Days || len(got.Matched) != len(want.Matched) {
		t.Fatalf("header: got %v/%d/%d trajectories, want %v/%d/%d", got.BaseDate, got.Days, len(got.Matched), want.BaseDate, want.Days, len(want.Matched))
	}
	for i := range want.Matched {
		a, b := &want.Matched[i], &got.Matched[i]
		if a.Taxi != b.Taxi || a.Day != b.Day || !bytes.Equal(visitBits(a.Visits), visitBits(b.Visits)) {
			t.Fatalf("trajectory %d differs from the reference decode", i)
		}
	}
	if !base.Equal(want.BaseDate) || stats != want.Stats() || stats != got.Stats() {
		t.Fatalf("structural walk: base %v stats %+v, want %v %+v", base, stats, want.BaseDate, want.Stats())
	}
}

// visitBits re-encodes visits so that comparison is on bits, not on
// float equality (a NaN speed must compare equal to itself).
func visitBits(vs []Visit) []byte {
	out := make([]byte, 0, len(vs)*v2VisitBytes)
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint32(out, uint32(v.Segment))
		out = binary.LittleEndian.AppendUint32(out, uint32(v.EnterMs))
		out = binary.LittleEndian.AppendUint32(out, uint32(v.ExitMs))
		out = binary.LittleEndian.AppendUint32(out, floatBits(float64(v.Speed)))
	}
	return out
}

// TestReadDatasetMatchesReference truncates a real dataset, in each
// version, at every offset through its header and first trajectories,
// and at a spread of offsets beyond: each prefix must fail (or, at full
// length, decode) as its oracle says.
func TestReadDatasetMatchesReference(t *testing.T) {
	ds := smallSim(t, testNetwork(t))
	for _, data := range [][]byte{encodeForTest(t, ds), encodeV2(t, ds)} {
		checkAgainstRef(t, data)
		for cut := 0; cut < len(data); cut++ {
			if cut > 600 && cut%997 != 0 && cut != len(data)-1 {
				continue
			}
			checkAgainstRef(t, data[:cut])
		}
	}
	for _, bad := range [][]byte{nil, []byte("NOPE00000000"), append([]byte("STRJ\x03\x00"), make([]byte, 16)...), append([]byte("STRJ\x04\x00"), make([]byte, 16)...)} {
		checkAgainstRef(t, bad)
	}
}

// TestReadDatasetV2RejectsTrailingBytes: a version 2 file ends after the
// trajectories its header declares. Garbage appended to one fails the
// decode and the structural walk alike, as corruption, as the reference
// reader fails it; the same file without the garbage reads.
func TestReadDatasetV2RejectsTrailingBytes(t *testing.T) {
	v2 := encodeV2(t, smallSim(t, testNetwork(t)))
	for _, data := range [][]byte{append(bytes.Clone(v2), bytes.Repeat([]byte{0xa5}, 16)...), append(bytes.Clone(v2), 0)} {
		checkAgainstRef(t, data)
		for name, err := range map[string]error{
			"ReadDataset": func() error { _, err := ReadDataset(bytes.NewReader(data)); return err }(),
			"walk":        func() error { _, _, err := ScanDataset(bytes.NewReader(data), nil); return err }(),
		} {
			if err == nil || xerr.KindOf(err) != xerr.KindCorrupt || !strings.Contains(err.Error(), "bytes after the") {
				t.Fatalf("%s of a v2 file with %d bytes appended: %v, want corruption naming the bytes after the end", name, len(data)-len(v2), err)
			}
		}
	}
	checkAgainstRef(t, v2)
	if _, err := ReadDataset(bytes.NewReader(v2)); err != nil {
		t.Fatal(err)
	}
}

// TestScanDatasetChunks covers, in each version, a trajectory longer
// than one bulk read of version 2, the reuse of the visit buffer across
// callbacks, and a callback error.
func TestScanDatasetChunks(t *testing.T) {
	long := make([]Visit, 2*scanChunkVisits+17)
	for i := range long {
		long[i] = Visit{Segment: segID(uint32(i % 7)), EnterMs: int32(i), ExitMs: int32(i + 1), Speed: float32(i%13) + 0.5}
	}
	ds := &Dataset{BaseDate: time.Unix(1_500_000_000, 0).UTC(), Days: 3, Matched: []MatchedTrajectory{
		{Taxi: 4, Day: 0, Visits: long},
		{Taxi: 4, Day: 1, Visits: []Visit{}},
		{Taxi: 9, Day: 2, Visits: long[:3]},
	}}
	v2 := encodeV2(t, ds)
	checkAgainstRef(t, v2[:len(v2)-5])
	checkAgainstRef(t, v2[:22+10+scanChunkVisits*v2VisitBytes+8]) // header, head, a bulk read, half a visit
	for _, data := range [][]byte{encodeForTest(t, ds), v2} {
		checkAgainstRef(t, data)
		checkAgainstRef(t, data[:len(data)/2])
		var lens []int
		_, stats, err := ScanDataset(bytes.NewReader(data), func(mt *MatchedTrajectory) error {
			lens = append(lens, len(mt.Visits))
			return nil
		})
		if err != nil || !reflect.DeepEqual(lens, []int{len(long), 0, 3}) || stats != ds.Stats() {
			t.Fatalf("scan: lens %v stats %+v err %v, want %+v", lens, stats, err, ds.Stats())
		}
		stop := errors.New("stop")
		if _, _, err := ScanDataset(bytes.NewReader(data), func(*MatchedTrajectory) error { return stop }); err != stop {
			t.Fatalf("callback error came back as %v", err)
		}
	}
}

// v3Head is a version 3 payload's header and the head of one trajectory
// (taxi 7, day 0) declaring nv visits in size bytes.
func v3Head(count uint32, nv, size uint64) []byte {
	p := binary.LittleEndian.AppendUint64(nil, 0)
	p = binary.LittleEndian.AppendUint32(p, 1)
	p = binary.LittleEndian.AppendUint32(p, count)
	for _, f := range []uint64{7, 0, nv, size} {
		p = binary.AppendUvarint(p, f)
	}
	return p
}

// TestReadDatasetHostileCounts feeds headers that declare four billion
// trajectories, or visits, over a few bytes of input: the reader must
// fail having allocated next to nothing. Version 3 files carry valid
// checksums, so the counts reach the decoder.
func TestReadDatasetHostileCounts(t *testing.T) {
	head := func(count uint32) []byte {
		b := []byte(codecMagic)
		b = binary.LittleEndian.AppendUint16(b, v2Version)
		b = binary.LittleEndian.AppendUint64(b, 0)
		b = binary.LittleEndian.AppendUint32(b, 1)
		return binary.LittleEndian.AppendUint32(b, count)
	}
	manyTraj := head(1<<32 - 1)
	manyVisits := head(1)
	manyVisits = binary.LittleEndian.AppendUint32(manyVisits, 7)
	manyVisits = binary.LittleEndian.AppendUint16(manyVisits, 0)
	manyVisits = binary.LittleEndian.AppendUint32(manyVisits, 1<<32-1)
	manyVisits = append(manyVisits, make([]byte, 40)...)
	const nv = 1<<32 - 1
	for _, data := range [][]byte{
		manyTraj,
		manyVisits,
		framed(v3Head(1<<32-1, 0, 0)),
		framed(append(v3Head(1, nv, nv*minVisitBytes), make([]byte, 60)...)),
		framed(append(v3Head(1, nv, nv*maxVisitBytes), make([]byte, 60)...)),
		framed(append(v3Head(1, nv, 60), make([]byte, 60)...)),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadDataset(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("hostile count decoded without error")
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("reader allocated %d bytes on a %d-byte input (%v)", grew, len(data), err)
		}
		checkAgainstRef(t, data)
	}
}

// TestDatasetV3Layout pins version 3 byte by byte on a hand-coded
// trajectory: shortest-form varints, the contiguous flag, negative
// deltas and gaps, a visit running backwards in time.
func TestDatasetV3Layout(t *testing.T) {
	ds := &Dataset{BaseDate: time.Unix(1_400_000_000, 0).UTC(), Days: 2, Matched: []MatchedTrajectory{
		{Taxi: 300, Day: 1, Visits: []Visit{
			{Segment: 5, EnterMs: 1000, ExitMs: 1500, Speed: 2},  // gap 1000 from time 0
			{Segment: 70, EnterMs: 1500, ExitMs: 1600, Speed: 1}, // contiguous
			{Segment: 3, EnterMs: 1590, ExitMs: 1580, Speed: 0},  // gap -10, duration -10
		}},
		{Taxi: -1, Day: -1},
	}}
	le := binary.LittleEndian
	p := le.AppendUint64(nil, 1_400_000_000)
	p = le.AppendUint32(p, 2)
	p = le.AppendUint32(p, 2)
	block := []byte{
		0x0a, 0xe8, 0x07, 0xd0, 0x0f, 0x00, 0x00, 0x00, 0x40, // +5, 500<<1, gap zigzag 2000, 2.0
		0x82, 0x01, 0xc9, 0x01, 0x00, 0x00, 0x80, 0x3f, // zigzag +65, 100<<1|1, 1.0
		0x85, 0x01, 0xec, 0xff, 0xff, 0xff, 0x1f, 0x13, 0x00, 0x00, 0x00, 0x00, // zigzag -67, (2^32-10)<<1, gap zigzag -10, 0.0
	}
	p = append(p, 0xac, 0x02, 1, 3, byte(len(block)))
	p = append(p, block...)
	p = append(p, 0xff, 0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0x03, 0, 0)
	want := framed(p)
	if got := encodeForTest(t, ds); !bytes.Equal(got, want) {
		t.Fatalf("encoding\n got  % x\n want % x", payloadOf(got), p)
	}
	got, err := ReadDataset(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeV2(t, got), encodeV2(t, ds)) {
		t.Fatalf("decoded %+v, want %+v", got.Matched, ds.Matched)
	}
}

// FuzzReadDataset: arbitrary bytes never panic or over-allocate, and
// ReadDataset and the structural walk agree with their oracle on every
// input (checkAgainstRef). With frame set the input is a version 3
// payload, framed with valid checksums so that mutation reaches the
// records; otherwise it is the file itself, version 2 or anything else.
func FuzzReadDataset(f *testing.F) {
	ds := &Dataset{BaseDate: time.Unix(1_400_000_000, 0).UTC(), Days: 2, Matched: []MatchedTrajectory{
		{Taxi: 1, Day: 0, Visits: []Visit{{Segment: 3, EnterMs: 10, ExitMs: 20, Speed: 7.5}, {Segment: 4, EnterMs: 20, ExitMs: 35, Speed: 9}}},
		{Taxi: 2, Day: 1, Visits: []Visit{}},
	}}
	valid := encodeForTest(f, ds)
	payload := payloadOf(valid)
	f.Add(payload, true)
	f.Add(payload[:len(payload)-3], true)
	f.Add(valid[:25], false)
	f.Add([]byte("NOPE"), false)
	f.Add([]byte{}, false)
	v2 := encodeV2(f, ds)
	f.Add(v2, false)
	f.Add(v2[:len(v2)-3], false)
	// Two inputs that are not the writer's form: the first taxi as a
	// two-byte varint, and the first visit's entry gap (header 16 bytes,
	// trajectory head 4, segment delta and duration 1 each) as 0 without
	// the contiguous flag.
	overlong := append(append(bytes.Clone(payload[:16]), 0x81, 0x00), payload[17:]...)
	f.Add(overlong, true)
	zeroGap := bytes.Clone(payload)
	zeroGap[16+4+2] = 0
	f.Add(zeroGap, true)
	f.Fuzz(func(t *testing.T, data []byte, frame bool) {
		if frame {
			data = framed(data)
		}
		checkAgainstRef(t, data)
	})
}

// writeDatasetRef is the version 2 encoder this package shipped: every
// field through its own bufio.Writer.Write. It makes the version 2 files
// the reader still reads, and, as every field's bits in a fixed layout,
// the record of a dataset that two datasets are compared on.
func writeDatasetRef(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return fmt.Errorf("traj: write magic: %w", err)
	}
	var scratch [8]byte
	writeU16 := func(v uint16) error {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		_, err := bw.Write(scratch[:2])
		return err
	}
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := bw.Write(scratch[:8])
		return err
	}
	if err := writeU16(v2Version); err != nil {
		return fmt.Errorf("traj: write version: %w", err)
	}
	if err := writeU64(uint64(ds.BaseDate.Unix())); err != nil {
		return fmt.Errorf("traj: write base date: %w", err)
	}
	if err := writeU32(uint32(ds.Days)); err != nil {
		return fmt.Errorf("traj: write days: %w", err)
	}
	if err := writeU32(uint32(len(ds.Matched))); err != nil {
		return fmt.Errorf("traj: write count: %w", err)
	}
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		if err := writeU32(uint32(mt.Taxi)); err != nil {
			return err
		}
		if err := writeU16(uint16(mt.Day)); err != nil {
			return err
		}
		if err := writeU32(uint32(len(mt.Visits))); err != nil {
			return err
		}
		for _, v := range mt.Visits {
			if err := writeU32(uint32(v.Segment)); err != nil {
				return err
			}
			if err := writeU32(uint32(v.EnterMs)); err != nil {
				return err
			}
			if err := writeU32(uint32(v.ExitMs)); err != nil {
				return err
			}
			if err := writeU32(floatBits(float64(v.Speed))); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// randomBitsDataset fills every field with arbitrary bits (negative
// taxis, days and segments, NaN speeds): the encoder writes what it is
// given.
func randomBitsDataset(rng *rand.Rand, trajs, maxVisits int) *Dataset {
	ds := &Dataset{BaseDate: time.Unix(rng.Int63n(1<<40)-1<<39, 0).UTC(), Days: int(rng.Int31())}
	for i := 0; i < trajs; i++ {
		mt := MatchedTrajectory{Taxi: TaxiID(rng.Uint32()), Day: Day(rng.Uint32())}
		for v, nv := 0, rng.Intn(maxVisits+1); v < nv; v++ {
			mt.Visits = append(mt.Visits, Visit{
				Segment: segID(rng.Uint32()),
				EnterMs: int32(rng.Uint32()),
				ExitMs:  int32(rng.Uint32()),
				Speed:   math.Float32frombits(rng.Uint32()),
			})
		}
		ds.Matched = append(ds.Matched, mt)
	}
	return ds
}

// TestWriteDatasetMatchesReference: what WriteDataset writes decodes to
// the dataset it was written from, every field's bits as the version 2
// reference encoder records them, and re-encodes to the same bytes — on
// random datasets, on datasets that cross the frame's chunk many times,
// on an empty dataset and on trajectories with no visits.
func TestWriteDatasetMatchesReference(t *testing.T) {
	long := randomBitsDataset(rand.New(rand.NewSource(1)), 1, 0)
	long.Matched[0].Visits = randomBitsDataset(rand.New(rand.NewSource(2)), 1, 0).Matched[0].Visits
	for i := 0; i < 3*writeChunk/minVisitBytes+5; i++ {
		long.Matched[0].Visits = append(long.Matched[0].Visits, Visit{Segment: segID(uint32(i)), EnterMs: int32(i), ExitMs: int32(-i), Speed: float32(i)})
	}
	cases := map[string]*Dataset{
		"empty":      {},
		"no visits":  {Days: 2, Matched: []MatchedTrajectory{{Taxi: 3, Day: 1}, {Taxi: 4, Day: 0, Visits: []Visit{}}}},
		"simulated":  smallSim(t, testNetwork(t)),
		"long":       long,
		"many small": randomBitsDataset(rand.New(rand.NewSource(3)), 120_000, 1),
	}
	for seed := int64(0); seed < 20; seed++ {
		cases[fmt.Sprintf("random %d", seed)] = randomBitsDataset(rand.New(rand.NewSource(seed)), int(seed)*37, 40)
	}
	for name, ds := range cases {
		data := encodeForTest(t, ds)
		got, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(encodeV2(t, got), encodeV2(t, ds)) {
			t.Fatalf("%s: decodes to another dataset", name)
		}
		if again := encodeForTest(t, got); !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encodes to %d bytes, first encoding %d", name, len(again), len(data))
		}
	}
}

// writeChunk is the frame's chunk payload, which WriteDataset writes out
// whole.
const writeChunk = 64 << 10

// shortWriter accepts limit bytes, then fails every write.
type shortWriter struct{ limit int }

var errShortWrite = errors.New("device full")

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errShortWrite
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestWriteDatasetReportsWriteError: a writer that fails at the first
// write, or after one or more full chunks, fails WriteDataset with its
// error.
func TestWriteDatasetReportsWriteError(t *testing.T) {
	ds := randomBitsDataset(rand.New(rand.NewSource(4)), 3_000, 200) // about 4 MB
	for _, limit := range []int{0, 100, writeChunk - 1, writeChunk + 1, 2 * writeChunk, 20 * writeChunk} {
		if err := WriteDataset(&shortWriter{limit: limit}, ds); !errors.Is(err, errShortWrite) {
			t.Fatalf("limit %d: error %v, want the writer's", limit, err)
		}
	}
}

// BenchmarkDatasetCodec measures both versions of dataset.bin on a fifth
// of the benchmark world's fleet: the bytes a visit takes, and the ns a
// visit takes to encode and to decode through ReadDataset (version 3's
// checksums included). Version 2 is encoded by the field-by-field
// reference encoder, the only version 2 writer left.
func BenchmarkDatasetCodec(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Taxis = 100
	ds, err := Simulate(benchCity(b), cfg)
	if err != nil {
		b.Fatal(err)
	}
	visits := float64(ds.Stats().Visits)
	for _, c := range []struct {
		name  string
		write func(io.Writer, *Dataset) error
	}{{"v2", writeDatasetRef}, {"v3", WriteDataset}} {
		var file bytes.Buffer
		if err := c.write(&file, ds); err != nil {
			b.Fatal(err)
		}
		perVisit := func(b *testing.B) {
			b.ReportMetric(float64(file.Len())/visits, "B/visit")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/visits, "ns/visit")
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			var out bytes.Buffer
			out.Grow(file.Len())
			for i := 0; i < b.N; i++ {
				out.Reset()
				if err := c.write(&out, ds); err != nil {
					b.Fatal(err)
				}
			}
			perVisit(b)
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ReadDataset(bytes.NewReader(file.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			perVisit(b)
		})
	}
}
