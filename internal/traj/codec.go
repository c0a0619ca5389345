package traj

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"time"
)

// Binary dataset format (little endian):
//
//	magic "STRJ" | version u16 | baseDate unix s i64 | days u32 | ntraj u32
//	per trajectory: taxi i32 | day i16 | nvisits u32
//	per visit: segment i32 | enter day-ms u32 | exit day-ms u32 | speed f32
const (
	codecMagic   = "STRJ"
	codecVersion = 2
)

// WriteDataset encodes ds to w. The encoding is appended to one buffer
// of encodeChunk bytes, reused, and written to w whenever the next record
// would not fit.
func WriteDataset(w io.Writer, ds *Dataset) error {
	le := binary.LittleEndian
	buf := make([]byte, 0, encodeChunk)
	buf = append(buf, codecMagic...)
	buf = le.AppendUint16(buf, codecVersion)
	buf = le.AppendUint64(buf, uint64(ds.BaseDate.Unix()))
	buf = le.AppendUint32(buf, uint32(ds.Days))
	buf = le.AppendUint32(buf, uint32(len(ds.Matched)))
	var err error
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		if buf, err = makeRoom(w, buf, trajHeadBytes); err != nil {
			return fmt.Errorf("traj: write trajectory %d: %w", i, err)
		}
		buf = le.AppendUint32(buf, uint32(mt.Taxi))
		buf = le.AppendUint16(buf, uint16(mt.Day))
		buf = le.AppendUint32(buf, uint32(len(mt.Visits)))
		for _, v := range mt.Visits {
			if buf, err = makeRoom(w, buf, visitBytes); err != nil {
				return fmt.Errorf("traj: write trajectory %d: %w", i, err)
			}
			buf = le.AppendUint32(buf, uint32(v.Segment))
			buf = le.AppendUint32(buf, uint32(v.EnterMs))
			buf = le.AppendUint32(buf, uint32(v.ExitMs))
			buf = le.AppendUint32(buf, floatBits(float64(v.Speed)))
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("traj: write dataset: %w", err)
	}
	return nil
}

// makeRoom writes buf to w and returns it emptied, unless n more bytes
// fit in it.
func makeRoom(w io.Writer, buf []byte, n int) ([]byte, error) {
	if len(buf)+n <= cap(buf) {
		return buf, nil
	}
	_, err := w.Write(buf)
	return buf[:0], err
}

// ReadDataset decodes a dataset from r. No slice is sized from a length
// the input declares: everything grows with the bytes that arrive.
func ReadDataset(r io.Reader) (*Dataset, error) {
	ds := &Dataset{}
	base, stats, err := ScanDataset(r, func(mt *MatchedTrajectory) error {
		ds.Matched = append(ds.Matched, MatchedTrajectory{
			Taxi:   mt.Taxi,
			Day:    mt.Day,
			Visits: slices.Clone(mt.Visits),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.BaseDate, ds.Days = base, stats.Days
	return ds, nil
}

const (
	// encodeChunk is the size of WriteDataset's buffer: large enough
	// that writes are few, small enough to stay out of the way.
	encodeChunk   = 1 << 20
	trajHeadBytes = 10 // taxi i32 | day i16 | nvisits u32
	visitBytes    = 16
	// scanChunkVisits bounds one bulk read of visits: a trajectory that
	// declares more is read in several chunks, so a corrupt count costs
	// one chunk of memory before the input runs dry, not count x 16 B.
	scanChunkVisits = 4096
)

// ScanDataset decodes a dataset from r one trajectory at a time, in file
// order, and returns its base date and statistics — what ReadDataset
// followed by Dataset.Stats would report — holding one trajectory in
// memory at a time. mt and mt.Visits are reused for the next trajectory:
// visit must copy what it keeps. An error from visit stops the scan and
// is returned as is.
//
// With a nil visit the scan is structural: it reads the file header and
// each trajectory's head and skips the visits undecoded. It accepts
// exactly the inputs a decoding scan accepts, with the same statistics,
// and rejects the others with the same errors.
func ScanDataset(r io.Reader, visit func(mt *MatchedTrajectory) error) (time.Time, DatasetStats, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var scratch [8]byte
	read := func(n int) ([]byte, error) {
		_, err := io.ReadFull(br, scratch[:n])
		return scratch[:n], err
	}
	fail := func(format string, args ...any) (time.Time, DatasetStats, error) {
		return time.Time{}, DatasetStats{}, fmt.Errorf(format, args...)
	}
	magic, err := read(4)
	if err != nil {
		return fail("traj: read magic: %w", err)
	}
	if string(magic) != codecMagic {
		return fail("traj: bad magic %q", magic)
	}
	b, err := read(2)
	if err != nil {
		return fail("traj: read version: %w", err)
	}
	if ver := binary.LittleEndian.Uint16(b); ver != codecVersion {
		return fail("traj: unsupported version %d", ver)
	}
	if b, err = read(8); err != nil {
		return fail("traj: read base date: %w", err)
	}
	base := time.Unix(int64(binary.LittleEndian.Uint64(b)), 0).UTC()
	if b, err = read(4); err != nil {
		return fail("traj: read days: %w", err)
	}
	stats := DatasetStats{Days: int(binary.LittleEndian.Uint32(b))}
	if b, err = read(4); err != nil {
		return fail("traj: read count: %w", err)
	}
	count := binary.LittleEndian.Uint32(b)

	taxis := map[TaxiID]struct{}{}
	var (
		mt  MatchedTrajectory
		raw []byte
	)
	if visit != nil {
		raw = make([]byte, scanChunkVisits*visitBytes)
	}
	for i := uint32(0); i < count; i++ {
		if b, err = read(4); err != nil {
			return fail("traj: trajectory %d: %w", i, err)
		}
		mt.Taxi = TaxiID(binary.LittleEndian.Uint32(b))
		if b, err = read(2); err != nil {
			return fail("traj: trajectory %d: %w", i, err)
		}
		mt.Day = Day(binary.LittleEndian.Uint16(b))
		if b, err = read(4); err != nil {
			return fail("traj: trajectory %d: %w", i, err)
		}
		nv := int(binary.LittleEndian.Uint32(b))
		mt.Visits = mt.Visits[:0]
		for done := 0; done < nv; {
			chunk := min(nv-done, scanChunkVisits)
			var got int
			if visit == nil {
				got, err = br.Discard(chunk * visitBytes)
			} else {
				got, err = io.ReadFull(br, raw[:chunk*visitBytes])
			}
			if err != nil {
				// A visit is four 4-byte fields: input that ends between
				// two fields is a clean EOF, inside one an unexpected EOF.
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					err = io.EOF
					if got%4 != 0 {
						err = io.ErrUnexpectedEOF
					}
				}
				return fail("traj: trajectory %d visit %d: %w", i, done+got/visitBytes, err)
			}
			if visit != nil {
				for v := raw[:got]; len(v) > 0; v = v[visitBytes:] {
					mt.Visits = append(mt.Visits, Visit{
						Segment: segID(binary.LittleEndian.Uint32(v[0:4])),
						EnterMs: int32(binary.LittleEndian.Uint32(v[4:8])),
						ExitMs:  int32(binary.LittleEndian.Uint32(v[8:12])),
						Speed:   float32(bitsFloat(binary.LittleEndian.Uint32(v[12:16]))),
					})
				}
			}
			done += chunk
		}
		taxis[mt.Taxi] = struct{}{}
		stats.Trajectories++
		stats.Visits += nv
		if visit != nil {
			if err := visit(&mt); err != nil {
				return time.Time{}, DatasetStats{}, err
			}
		}
	}
	stats.Taxis = len(taxis)
	return base, stats, nil
}
