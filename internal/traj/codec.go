package traj

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"streach/internal/storage"
	"streach/internal/xerr"
)

// Binary dataset formats (little endian). Both begin magic "STRJ" |
// version u16, the header of storage's checksummed frame, and the
// version picks the decoder.
//
// Version 3, the one WriteDataset writes, is a frame (DESIGN.md §11.3)
// whose payload is
//
//	baseDate unix s i64 | days u32 | ntraj u32
//	per trajectory: taxi uvarint | day uvarint | nvisits uvarint |
//	                block length uvarint | block of nvisits visits
//	per visit:      segment delta   zigzag varint
//	                duration<<1 | c uvarint
//	                entry gap       zigzag varint, only when c is 0
//	                speed           f32
//
// A visit's segment is coded from the one before it, its duration is
// exit - entry, and c is 1 when it enters exactly when the one before it
// exits; otherwise the entry gap is entry - that exit. A trajectory's
// first visit counts from segment 0 and time 0. Taxi and day are the
// bits of their int32 and int16; deltas, gaps and durations are taken
// modulo 2^32, so any int32 times round-trip, in order or not. Every
// varint is in its shortest form and a gap is never 0 (that is c = 1):
// a file that decodes re-encodes to the same payload. The block length
// lets a structural scan step over the visits undecoded.
//
// Version 2, written by earlier builds and still read (the trajectories
// have no rebuild path), is unframed:
//
//	magic "STRJ" | version u16 | baseDate unix s i64 | days u32 | ntraj u32
//	per trajectory: taxi i32 | day i16 | nvisits u32
//	per visit: segment i32 | enter day-ms u32 | exit day-ms u32 | speed f32
const (
	codecMagic   = "STRJ"
	codecVersion = 3
	// v2Version is the unframed layout before the frame.
	v2Version = 2
)

const (
	// v2VisitBytes is a version 2 visit.
	v2VisitBytes = 16
	// scanChunkVisits bounds one bulk read of version 2 visits: a
	// trajectory that declares more is read in several chunks, so a
	// corrupt count costs one chunk of memory before the input runs dry,
	// not count x 16 B.
	scanChunkVisits = 4096
	// minVisitBytes and maxVisitBytes bound a version 3 visit: a
	// one-byte delta and duration and the speed, up to a five-byte
	// delta, duration and gap and the speed.
	minVisitBytes = 1 + 1 + 4
	maxVisitBytes = 5 + 5 + 5 + 4
)

// WriteDataset encodes ds to w as version 3. Each trajectory's visits are
// coded into one reused buffer, then written with their head into the
// frame, which goes out to w a 64 KiB chunk at a time.
func WriteDataset(w io.Writer, ds *Dataset) error {
	fw := storage.NewChecksumWriter(w, codecMagic, codecVersion)
	fw.Uint64(uint64(ds.BaseDate.Unix()))
	fw.Uint32(uint32(ds.Days))
	fw.Uint32(uint32(len(ds.Matched)))
	var (
		head  [4 * binary.MaxVarintLen64]byte
		block []byte
	)
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		block = appendVisits(block[:0], mt.Visits)
		h := binary.AppendUvarint(head[:0], uint64(uint32(mt.Taxi)))
		h = binary.AppendUvarint(h, uint64(uint16(mt.Day)))
		h = binary.AppendUvarint(h, uint64(len(mt.Visits)))
		h = binary.AppendUvarint(h, uint64(len(block)))
		fw.Write(h)
		if _, err := fw.Write(block); err != nil {
			return fmt.Errorf("traj: write trajectory %d: %w", i, err)
		}
	}
	if err := fw.Finish(); err != nil {
		return fmt.Errorf("traj: write dataset: %w", err)
	}
	return nil
}

// appendVisits appends the version 3 coding of vs to b.
func appendVisits(b []byte, vs []Visit) []byte {
	var seg, exit uint32
	for _, v := range vs {
		b = binary.AppendUvarint(b, zigzag(uint32(v.Segment)-seg))
		dur := uint64(uint32(v.ExitMs)-uint32(v.EnterMs)) << 1
		if gap := uint32(v.EnterMs) - exit; gap == 0 {
			b = binary.AppendUvarint(b, dur|1)
		} else {
			b = binary.AppendUvarint(b, dur)
			b = binary.AppendUvarint(b, zigzag(gap))
		}
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v.Speed))
		seg, exit = uint32(v.Segment), uint32(v.ExitMs)
	}
	return b
}

// zigzag maps a difference taken modulo 2^32, read as an int32, to an
// unsigned value that is small when the difference is near zero.
func zigzag(d uint32) uint64 { return uint64(d<<1 ^ uint32(int32(d)>>31)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) uint32 { return uint32(u>>1) ^ -uint32(u&1) }

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

// ScanDataset decodes a dataset of either version from r one trajectory
// at a time, in file order, and returns its base date and statistics —
// what ReadDataset followed by Dataset.Stats would report — holding one
// trajectory in memory at a time. mt and mt.Visits are reused for the
// next trajectory: visit must copy what it keeps. An error from visit
// stops the scan and is returned as is; every failure of the input —
// a bad header, a truncation, a checksum mismatch, a malformed record —
// is marked xerr.KindCorrupt.
//
// With a nil visit the scan is structural: it reads the header and each
// trajectory's head and steps over the visits undecoded. On version 2 it
// accepts exactly the inputs a decoding scan accepts, with the same
// statistics, and rejects the others with the same errors. On version 3
// it still verifies every checksum and the end of the frame, so it
// accepts a file a decoding scan rejects only when a block that decodes
// badly carries valid checksums: a file no writer wrote.
func ScanDataset(r io.Reader, visit func(mt *MatchedTrajectory) error) (time.Time, DatasetStats, error) {
	var head [6]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return scanFailed("traj: read magic: %w", err)
	}
	if string(head[:4]) != codecMagic {
		return scanFailed("traj: bad magic %q", head[:4])
	}
	if _, err := io.ReadFull(r, head[4:]); err != nil {
		return scanFailed("traj: read version: %w", err)
	}
	switch ver := binary.LittleEndian.Uint16(head[4:]); ver {
	case codecVersion:
		return scanV3(storage.Rewound(head[:], r), visit)
	case v2Version:
		return scanV2(r, visit)
	default:
		return scanFailed("traj: unsupported version %d", ver)
	}
}

// scanFailed is the result of a scan that failed as format and args say.
// A failure of the input is marked xerr.KindCorrupt: a malformed field,
// an input that ends early. An error of the reader itself, or one
// classified already (the frame's, a version 3 record's), passes as it
// is.
func scanFailed(format string, args ...any) (time.Time, DatasetStats, error) {
	err := fmt.Errorf(format, args...)
	if u := errors.Unwrap(err); u != nil && !errors.Is(u, io.EOF) && !errors.Is(u, io.ErrUnexpectedEOF) {
		return time.Time{}, DatasetStats{}, err
	}
	return time.Time{}, DatasetStats{}, xerr.Markf(xerr.KindCorrupt, "%w", err)
}

// scanV3 scans the frame of a version 3 dataset, its header included.
func scanV3(r io.Reader, visit func(mt *MatchedTrajectory) error) (time.Time, DatasetStats, error) {
	fr, err := storage.NewChecksumReader(r, codecMagic, codecVersion)
	if err != nil {
		return scanFailed("traj: %w", err)
	}
	base := time.Unix(int64(fr.Uint64()), 0).UTC()
	stats := DatasetStats{Days: int(fr.Uint32())}
	count := fr.Uint32()
	if err := fr.Err(); err != nil {
		return scanFailed("traj: read header: %w", err)
	}
	taxis := map[TaxiID]struct{}{}
	var mt MatchedTrajectory
	for i := uint32(0); i < count; i++ {
		taxi, day, nv, size, err := readTrajHead(fr)
		if err != nil {
			return scanFailed("traj: trajectory %d: %w", i, err)
		}
		var block []byte
		if size > 0 {
			if block = fr.Next(size); block == nil {
				return scanFailed("traj: trajectory %d: %w", i, fr.Err())
			}
		}
		mt.Taxi, mt.Day = TaxiID(uint32(taxi)), Day(uint16(day))
		taxis[mt.Taxi] = struct{}{}
		stats.Trajectories++
		stats.Visits += nv
		if visit != nil {
			if mt.Visits, err = decodeVisits(mt.Visits, block, nv); err != nil {
				return scanFailed("traj: trajectory %d %w", i, err)
			}
			if err := visit(&mt); err != nil {
				return time.Time{}, DatasetStats{}, err
			}
		}
	}
	if err := fr.Finish(); err != nil {
		return scanFailed("traj: %w", err)
	}
	stats.Taxis = len(taxis)
	return base, stats, nil
}

// errVarint is a head field that is not a shortest-form varint within
// the field's range.
var errVarint = xerr.Markf(xerr.KindCorrupt, "malformed varint")

// readTrajHead reads a version 3 trajectory head: taxi, day, the visit
// count and the byte length of the visits, which must lie within what
// that many visits can take.
func readTrajHead(fr *storage.ChecksumReader) (taxi, day uint64, nv, size int, err error) {
	var f [4]uint64
	for k, limit := range [4]uint64{math.MaxUint32, math.MaxUint16, math.MaxUint32, maxVisitBytes * math.MaxUint32} {
		if f[k], err = readUvarint(fr, limit); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	nv, size = int(f[2]), int(f[3])
	if size < nv*minVisitBytes || size > nv*maxVisitBytes {
		return 0, 0, 0, 0, xerr.Markf(xerr.KindCorrupt, "%d visits in a %d-byte block", nv, size)
	}
	return f[0], f[1], nv, size, nil
}

// readUvarint reads a shortest-form uvarint of at most limit from fr.
func readUvarint(fr *storage.ChecksumReader, limit uint64) (uint64, error) {
	var buf [binary.MaxVarintLen64]byte
	for n := 0; n < len(buf); n++ {
		b := fr.Next(1)
		if b == nil {
			return 0, fr.Err()
		}
		if buf[n] = b[0]; b[0] < 0x80 {
			if x, end := uvarintAt(buf[:n+1], 0, limit); end > 0 {
				return x, nil
			}
			break
		}
	}
	return 0, errVarint
}

// uvarintAt decodes the shortest-form uvarint at b[i:] when it is at
// most limit (below 2^63), returning it and the offset after it; the
// offset is -1 for anything else.
func uvarintAt(b []byte, i int, limit uint64) (uint64, int) {
	var x uint64
	for s := uint(0); s < 63 && i < len(b); s += 7 {
		c := b[i]
		i++
		x |= uint64(c&0x7f) << s
		if c < 0x80 {
			if (c == 0 && s > 0) || x > limit {
				return 0, -1
			}
			return x, i
		}
	}
	return 0, -1
}

// decodeVisits decodes the n visits of a version 3 block into vs, reused.
// The block must hold exactly them. n is at most len(b)/minVisitBytes
// (readTrajHead checks it), so vs grows no further than the block's
// bytes can hold.
func decodeVisits(vs []Visit, b []byte, n int) ([]Visit, error) {
	vs = slices.Grow(vs[:0], n)[:n]
	var seg, exit uint32
	i := 0
	for j := range vs {
		var d, dur, gap uint64
		if d, i = uvarintAt(b, i, math.MaxUint32); i < 0 {
			return vs[:j], xerr.Markf(xerr.KindCorrupt, "visit %d: malformed segment delta", j)
		}
		if dur, i = uvarintAt(b, i, 1<<33-1); i < 0 {
			return vs[:j], xerr.Markf(xerr.KindCorrupt, "visit %d: malformed duration", j)
		}
		enter := exit
		if dur&1 == 0 {
			if gap, i = uvarintAt(b, i, math.MaxUint32); i < 0 || gap == 0 {
				return vs[:j], xerr.Markf(xerr.KindCorrupt, "visit %d: malformed entry gap", j)
			}
			enter += unzigzag(gap)
		}
		if i+4 > len(b) {
			return vs[:j], xerr.Markf(xerr.KindCorrupt, "visit %d: block ends inside the speed", j)
		}
		seg += unzigzag(d)
		exit = enter + uint32(dur>>1)
		vs[j] = Visit{
			Segment: segID(seg),
			EnterMs: int32(enter),
			ExitMs:  int32(exit),
			Speed:   math.Float32frombits(binary.LittleEndian.Uint32(b[i:])),
		}
		i += 4
	}
	if i != len(b) {
		return vs, xerr.Markf(xerr.KindCorrupt, "block: %d bytes after the last visit", len(b)-i)
	}
	return vs, nil
}

// scanV2 scans a version 2 dataset from r, read past its version.
func scanV2(r io.Reader, visit func(mt *MatchedTrajectory) error) (time.Time, DatasetStats, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var scratch [8]byte
	read := func(n int) ([]byte, error) {
		_, err := io.ReadFull(br, scratch[:n])
		return scratch[:n], err
	}
	b, err := read(8)
	if err != nil {
		return scanFailed("traj: read base date: %w", err)
	}
	base := time.Unix(int64(binary.LittleEndian.Uint64(b)), 0).UTC()
	if b, err = read(4); err != nil {
		return scanFailed("traj: read days: %w", err)
	}
	stats := DatasetStats{Days: int(binary.LittleEndian.Uint32(b))}
	if b, err = read(4); err != nil {
		return scanFailed("traj: read count: %w", err)
	}
	count := binary.LittleEndian.Uint32(b)

	taxis := map[TaxiID]struct{}{}
	var (
		mt  MatchedTrajectory
		raw []byte
	)
	if visit != nil {
		raw = make([]byte, scanChunkVisits*v2VisitBytes)
	}
	for i := uint32(0); i < count; i++ {
		if b, err = read(4); err != nil {
			return scanFailed("traj: trajectory %d: %w", i, err)
		}
		mt.Taxi = TaxiID(binary.LittleEndian.Uint32(b))
		if b, err = read(2); err != nil {
			return scanFailed("traj: trajectory %d: %w", i, err)
		}
		mt.Day = Day(binary.LittleEndian.Uint16(b))
		if b, err = read(4); err != nil {
			return scanFailed("traj: trajectory %d: %w", i, err)
		}
		nv := int(binary.LittleEndian.Uint32(b))
		mt.Visits = mt.Visits[:0]
		for done := 0; done < nv; {
			chunk := min(nv-done, scanChunkVisits)
			var got int
			if visit == nil {
				got, err = br.Discard(chunk * v2VisitBytes)
			} else {
				got, err = io.ReadFull(br, raw[:chunk*v2VisitBytes])
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
				return scanFailed("traj: trajectory %d visit %d: %w", i, done+got/v2VisitBytes, err)
			}
			if visit != nil {
				for v := raw[:got]; len(v) > 0; v = v[v2VisitBytes:] {
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
	// The file ends after its last trajectory, as a frame ends after its
	// end marker: bytes past it are a file no writer wrote.
	if _, err := br.ReadByte(); err == nil {
		return scanFailed("traj: bytes after the %d declared trajectories", count)
	} else if err != io.EOF {
		return scanFailed("traj: after the last trajectory: %w", err)
	}
	stats.Taxis = len(taxis)
	return base, stats, nil
}
