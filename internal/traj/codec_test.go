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
	"runtime"
	"testing"
	"time"
)

// readDatasetRef is the reader this package shipped before ScanDataset:
// every field through its own io.ReadFull, one trajectory after another.
// It is the oracle the bulk reader and the structural walk are held to —
// same datasets, same errors. The one change from the shipped code is
// that it appends instead of sizing slices from the file's counts, so it
// can be fed hostile input.
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
	if ver != codecVersion {
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
	return ds, nil
}

// encodeForTest returns ds in the dataset codec.
func encodeForTest(t testing.TB, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAgainstRef holds ReadDataset and the structural walk to the
// reference reader on one input: all three accept or all three reject
// with the same message, the datasets are equal bit for bit (speeds
// included, NaNs too), and both scans report the reference's Stats.
func checkAgainstRef(t testing.TB, data []byte) {
	t.Helper()
	want, wantErr := readDatasetRef(bytes.NewReader(data))
	got, gotErr := ReadDataset(bytes.NewReader(data))
	base, stats, walkErr := ScanDataset(bytes.NewReader(data), nil)
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
	out := make([]byte, 0, len(vs)*visitBytes)
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint32(out, uint32(v.Segment))
		out = binary.LittleEndian.AppendUint32(out, uint32(v.EnterMs))
		out = binary.LittleEndian.AppendUint32(out, uint32(v.ExitMs))
		out = binary.LittleEndian.AppendUint32(out, floatBits(float64(v.Speed)))
	}
	return out
}

// TestReadDatasetMatchesReference truncates a real dataset at every
// offset through its header and first trajectories, and at a spread of
// offsets beyond: each prefix must fail (or, at full length, decode)
// exactly as the field-by-field reference does.
func TestReadDatasetMatchesReference(t *testing.T) {
	data := encodeForTest(t, smallSim(t, testNetwork(t)))
	checkAgainstRef(t, data)
	for cut := 0; cut < len(data); cut++ {
		if cut > 600 && cut%997 != 0 && cut != len(data)-1 {
			continue
		}
		checkAgainstRef(t, data[:cut])
	}
	for _, bad := range [][]byte{nil, []byte("NOPE00000000"), append([]byte("STRJ\x03\x00"), make([]byte, 16)...)} {
		checkAgainstRef(t, bad)
	}
}

// TestScanDatasetChunks covers a trajectory longer than one bulk read,
// the reuse of the visit buffer across callbacks, and a callback error.
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
	data := encodeForTest(t, ds)
	checkAgainstRef(t, data)
	checkAgainstRef(t, data[:len(data)-5])
	checkAgainstRef(t, data[:22+10+scanChunkVisits*visitBytes+8])

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

// TestReadDatasetHostileCounts feeds headers that declare four billion
// trajectories, or visits, over a few bytes of input: the reader must
// fail for lack of input having allocated next to nothing.
func TestReadDatasetHostileCounts(t *testing.T) {
	head := func(count uint32) []byte {
		b := []byte(codecMagic)
		b = binary.LittleEndian.AppendUint16(b, codecVersion)
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
	for _, data := range [][]byte{manyTraj, manyVisits} {
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

// FuzzReadDataset: arbitrary bytes never panic or over-allocate, and
// ReadDataset, the structural walk and the reference reader agree on
// every input — accept/reject, error text, dataset bits, Stats.
func FuzzReadDataset(f *testing.F) {
	ds := &Dataset{BaseDate: time.Unix(1_400_000_000, 0).UTC(), Days: 2, Matched: []MatchedTrajectory{
		{Taxi: 1, Day: 0, Visits: []Visit{{Segment: 3, EnterMs: 10, ExitMs: 20, Speed: 7.5}, {Segment: 4, EnterMs: 20, ExitMs: 35, Speed: 9}}},
		{Taxi: 2, Day: 1, Visits: []Visit{}},
	}}
	valid := encodeForTest(f, ds)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:25])
	f.Add([]byte("NOPE"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstRef(t, data)
	})
}

// writeDatasetRef is the encoder this package shipped before the append
// encoder: every field through its own bufio.Writer.Write. WriteDataset
// is held to it byte for byte.
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
	if err := writeU16(codecVersion); err != nil {
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

// TestWriteDatasetMatchesReference: the append encoder writes the bytes
// the field-by-field encoder wrote, on random datasets, on datasets that
// cross its buffer several times, on an empty dataset and on trajectories
// with no visits.
func TestWriteDatasetMatchesReference(t *testing.T) {
	long := randomBitsDataset(rand.New(rand.NewSource(1)), 1, 0)
	long.Matched[0].Visits = randomBitsDataset(rand.New(rand.NewSource(2)), 1, 0).Matched[0].Visits
	for i := 0; i < 3*encodeChunk/visitBytes+5; i++ {
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
		var got, want bytes.Buffer
		if err := WriteDataset(&got, ds); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := writeDatasetRef(&want, ds); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: %d bytes differ from the reference's %d", name, got.Len(), want.Len())
		}
	}
}

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
// write, or after one or more full buffers, fails WriteDataset with its
// error.
func TestWriteDatasetReportsWriteError(t *testing.T) {
	ds := randomBitsDataset(rand.New(rand.NewSource(4)), 3_000, 200) // about 4.8 MB
	for _, limit := range []int{0, 100, encodeChunk - 1, encodeChunk + 1, 2 * encodeChunk} {
		if err := WriteDataset(&shortWriter{limit: limit}, ds); !errors.Is(err, errShortWrite) {
			t.Fatalf("limit %d: error %v, want the writer's", limit, err)
		}
	}
}
