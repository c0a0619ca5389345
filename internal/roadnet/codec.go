package roadnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"streach/internal/geo"
	"streach/internal/storage"
	"streach/internal/xerr"
)

// Binary network formats (little endian). Both begin magic "STRN" |
// version u16, the header of storage's checksummed frame, and the
// version picks the decoder. Version 2, the one WriteNetwork writes, is
// a frame (DESIGN.md §11.3) whose payload is
//
//	numRoads u32
//	per road: class u8 | oneway u8 | npoints u16 | npoints x (lat f64, lng f64)
//
// Version 1, written by earlier builds and still read (the network has
// no rebuild path), is the same records unframed after the header.
//
// Only the underlying roads are stored; vertices, adjacency, MBRs and the
// spatial index are rebuilt on load, and two-way roads re-create their
// twins, so a round trip reproduces the same segment IDs as the original
// build order.
const (
	netMagic   = "STRN"
	netVersion = 2
	// v1Version is the unframed layout before the frame.
	v1Version = 1
)

// WriteNetwork encodes n to w as version 2.
func WriteNetwork(w io.Writer, n *Network) error {
	// Count roads: every one-way segment and one member of each two-way
	// pair (the one with the lower ID, which was built first).
	var roads []*Segment
	for i := range n.segments {
		s := &n.segments[i]
		if s.Reverse == NoSegment || s.ID < s.Reverse {
			roads = append(roads, s)
		}
	}
	fw := storage.NewChecksumWriter(w, netMagic, netVersion)
	fw.Uint32(uint32(len(roads)))
	for _, s := range roads {
		if len(s.Shape) > math.MaxUint16 {
			return fmt.Errorf("roadnet: segment %d has %d shape points, max %d", s.ID, len(s.Shape), math.MaxUint16)
		}
		fw.Uint8(uint8(s.Class))
		oneway := uint8(0)
		if s.OneWay {
			oneway = 1
		}
		fw.Uint8(oneway)
		fw.Uint16(uint16(len(s.Shape)))
		for _, p := range s.Shape {
			fw.Uint64(math.Float64bits(p.Lat))
			fw.Uint64(math.Float64bits(p.Lng))
		}
	}
	if err := fw.Finish(); err != nil {
		return fmt.Errorf("roadnet: write network: %w", err)
	}
	return nil
}

// ReadNetwork decodes a network of either version from r, rebuilding
// adjacency and the spatial index. Every failure of the input — a bad
// header, a truncation, a checksum mismatch, a road the builder refuses
// — is marked xerr.KindCorrupt; an error of the reader itself is not.
func ReadNetwork(r io.Reader) (*Network, error) {
	var head [6]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return nil, fmt.Errorf("roadnet: read magic: %w", endedEarly(err))
	}
	if string(head[:4]) != netMagic {
		return nil, xerr.Markf(xerr.KindCorrupt, "roadnet: bad magic %q", head[:4])
	}
	if _, err := io.ReadFull(r, head[4:]); err != nil {
		return nil, fmt.Errorf("roadnet: read version: %w", endedEarly(err))
	}
	switch v := binary.LittleEndian.Uint16(head[4:]); v {
	case netVersion:
		fr, err := storage.NewChecksumReader(storage.Rewound(head[:], r), netMagic, netVersion)
		if err != nil {
			return nil, fmt.Errorf("roadnet: %w", err)
		}
		n, err := readRoads(func(k int) ([]byte, error) {
			if b := fr.Next(k); b != nil {
				return b, nil
			}
			return nil, fr.Err()
		})
		if err != nil {
			return nil, err
		}
		if err := fr.Finish(); err != nil {
			return nil, fmt.Errorf("roadnet: %w", err)
		}
		return n, nil
	case v1Version:
		br := bufio.NewReader(r)
		var buf [16]byte
		return readRoads(func(k int) ([]byte, error) {
			_, err := io.ReadFull(br, buf[:k])
			return buf[:k], endedEarly(err)
		})
	default:
		return nil, xerr.Markf(xerr.KindCorrupt, "roadnet: unsupported version %d", v)
	}
}

// endedEarly marks a read error that is the input ending early
// xerr.KindCorrupt, and passes any other as it is.
func endedEarly(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return xerr.Markf(xerr.KindCorrupt, "%w", err)
	}
	return err
}

// readRoads decodes the road records, pulling each field's k bytes
// through next, and builds the network.
func readRoads(next func(k int) ([]byte, error)) (*Network, error) {
	b, err := next(4)
	if err != nil {
		return nil, fmt.Errorf("roadnet: read road count: %w", err)
	}
	numRoads := binary.LittleEndian.Uint32(b)
	builder := NewBuilder()
	for i := uint32(0); i < numRoads; i++ {
		if b, err = next(4); err != nil {
			return nil, fmt.Errorf("roadnet: road %d header: %w", i, err)
		}
		class, oneway := RoadClass(b[0]), b[1] == 1
		shape := make(geo.Polyline, binary.LittleEndian.Uint16(b[2:]))
		for j := range shape {
			if b, err = next(16); err != nil {
				return nil, fmt.Errorf("roadnet: road %d point %d: %w", i, j, err)
			}
			shape[j].Lat = math.Float64frombits(binary.LittleEndian.Uint64(b[:8]))
			shape[j].Lng = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		}
		if _, err := builder.AddRoad(shape, class, oneway); err != nil {
			return nil, xerr.Markf(xerr.KindCorrupt, "roadnet: road %d: %w", i, err)
		}
	}
	return builder.Build(), nil
}
