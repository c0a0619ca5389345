package conindex

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"streach/internal/roadnet"
	"streach/internal/storage"
	"streach/internal/xerr"
)

// Con-Index persistence: the index is fully determined by its per-slot
// speed statistics (the Near/Far lists are derived views), so Save
// serializes just those arrays and Load rebuilds a lazy index over them.
//
// The file is a storage frame (magic "CIDX", version 3) whose payload
// is, little endian:
//
//	slotSec u32 | numSegments u32 |
//	numSlots*numSegments x (min f32, max f32, sum f32, cnt u32)
//
// A file of any other version — the layouts before the frame — does not
// load, and the facade rebuilds the index from its trajectories.
//
// The materialised Near/Far rows are not persisted: an index loaded
// from this file starts with cold tables, which queries fill on demand
// and PrecomputeSlotsCtx fills ahead of them.
const (
	conMagic   = "CIDX"
	conVersion = 3
)

// Save writes the index's speed statistics.
func (x *Index) Save(w io.Writer) error {
	fw := storage.NewChecksumWriter(w, conMagic, conVersion)
	fw.Uint32(uint32(x.slotSec))
	fw.Uint32(uint32(x.net.NumSegments()))
	for i := range x.minSpeed {
		fw.Uint32(atomic.LoadUint32(&x.minSpeed[i]))
		fw.Uint32(atomic.LoadUint32(&x.maxSpeed[i]))
		fw.Uint32(atomic.LoadUint32(&x.sumSpeed[i]))
		fw.Uint32(atomic.LoadUint32(&x.cntSpeed[i]))
	}
	if err := fw.Finish(); err != nil {
		return fmt.Errorf("conindex: write statistics: %w", err)
	}
	return nil
}

// Load reopens a saved index over the same network. No statistic is
// handed to the index before its chunk's checksum has verified.
func Load(net *roadnet.Network, r io.Reader) (*Index, error) {
	fr, err := storage.NewChecksumReader(r, conMagic, conVersion)
	if err != nil {
		return nil, fmt.Errorf("conindex: read statistics: %w", err)
	}
	slotSec, numSeg := int(fr.Uint32()), int(fr.Uint32())
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("conindex: read statistics: %w", err)
	}
	if slotSec <= 0 || 86400%slotSec != 0 {
		return nil, xerr.Markf(xerr.KindCorrupt, "conindex: invalid slot seconds %d", slotSec)
	}
	if numSeg != net.NumSegments() {
		return nil, fmt.Errorf("conindex: saved over %d segments, network has %d", numSeg, net.NumSegments())
	}
	if numSeg > maxRowSegments {
		return nil, fmt.Errorf("conindex: network too large (%d segments, max %d)", numSeg, maxRowSegments)
	}
	numSlots := 86400 / slotSec
	total := numSlots * numSeg
	// The arrays are sized by the records the file can hold, not by the
	// count its header implies: a few bytes claiming 1-second slots would
	// otherwise allocate 160 MB on a 112-segment network.
	n := int(min(int64(total), fr.Remaining()/16))
	minS, maxS, sumS, cntS := make([]uint32, 0, n), make([]uint32, 0, n), make([]uint32, 0, n), make([]uint32, 0, n)
	for i := 0; i < total; i++ {
		b := fr.Next(16)
		if b == nil {
			return nil, fmt.Errorf("conindex: read statistics %d: %w", i, fr.Err())
		}
		minS = append(minS, binary.LittleEndian.Uint32(b[0:4]))
		maxS = append(maxS, binary.LittleEndian.Uint32(b[4:8]))
		sumS = append(sumS, binary.LittleEndian.Uint32(b[8:12]))
		cntS = append(cntS, binary.LittleEndian.Uint32(b[12:16]))
	}
	if err := fr.Finish(); err != nil {
		return nil, fmt.Errorf("conindex: read statistics: %w", err)
	}
	return &Index{
		net:      net,
		slotSec:  slotSec,
		numSlots: numSlots,
		minSpeed: minS,
		maxSpeed: maxS,
		sumSpeed: sumS,
		cntSpeed: cntS,
		slotGen:  make([]atomic.Uint64, numSlots),
		near:     newTable(numSlots, numSeg),
		far:      newTable(numSlots, numSeg),
		nearRev:  newTable(numSlots, numSeg),
		farRev:   newTable(numSlots, numSeg),
	}, nil
}
