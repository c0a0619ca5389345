package conindex

import (
	"bytes"
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
// serializes just those and Load rebuilds a lazy index over them.
//
// The file is a storage frame (magic "CIDX", version 4) whose payload
// is, little endian:
//
//	slotSec u32 | numSegments u32 |
//	present [(numSlots+7)/8]byte, bit s%8 of byte s/8 for slot s |
//	per present slot, numSegments x (min f32, max f32, sum f32, cnt u32)
//
// A slot is present when some segment has a sample in it; every other
// slot holds the fallback speeds and is not written. Nearly every cell
// of a present slot holds a sample on a fleet's working hours, so the
// slot, not the cell, is the unit. The form is canonical — no bit past
// the last slot, no present slot without a sample — so a loaded file
// saves back byte for byte.
//
// Version 3, the layout before this one, writes every slot's records
// after the same two fields. Load still reads it, so a directory saved
// by that build opens without a rebuild: a rebuild would drop the live
// samples a durable compaction folded in, whose only durable copy is
// this file. The next Save writes version 4. A file of any other
// version — the layouts before the frame — does not load, and the
// facade rebuilds the index from its trajectories.
//
// The materialised Near/Far rows are not persisted: an index loaded
// from this file starts with cold tables, which queries fill on demand
// and PrecomputeSlotsCtx fills ahead of them.
const (
	conMagic   = "CIDX"
	conVersion = 4
	conV3      = 3
)

// Save writes the index's speed statistics.
func (x *Index) Save(w io.Writer) error {
	fw := storage.NewChecksumWriter(w, conMagic, conVersion)
	fw.Uint32(uint32(x.slotSec))
	fw.Uint32(uint32(x.net.NumSegments()))
	rows := make([]*slotSpeeds, x.numSlots)
	present := make([]byte, (x.numSlots+7)/8)
	for s := range rows {
		if r := x.speeds[s].Load(); r != nil && r.sampled() {
			rows[s] = r
			present[s>>3] |= 1 << (s & 7)
		}
	}
	fw.Write(present)
	var rec [16]byte
	for _, r := range rows {
		if r == nil {
			continue
		}
		for i := range r.min {
			binary.LittleEndian.PutUint32(rec[0:], atomic.LoadUint32(&r.min[i]))
			binary.LittleEndian.PutUint32(rec[4:], atomic.LoadUint32(&r.max[i]))
			binary.LittleEndian.PutUint32(rec[8:], atomic.LoadUint32(&r.sum[i]))
			binary.LittleEndian.PutUint32(rec[12:], atomic.LoadUint32(&r.cnt[i]))
			fw.Write(rec[:])
		}
	}
	if err := fw.Finish(); err != nil {
		return fmt.Errorf("conindex: write statistics: %w", err)
	}
	return nil
}

// Load reopens a saved index over the same network. No statistic is
// handed to the index before its chunk's checksum has verified, and
// every array is sized by the records the file can hold, not by the
// count its header implies: a few bytes claiming 1-second slots would
// otherwise allocate 160 MB on a 112-segment network.
func Load(net *roadnet.Network, r io.Reader) (*Index, error) {
	fr, err := storage.NewChecksumReader(r, conMagic, conVersion, conV3)
	if err != nil {
		return nil, fmt.Errorf("conindex: read statistics: %w", err)
	}
	version := fr.Version()
	slotSec, numSeg := int(fr.Uint32()), int(fr.Uint32())
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("conindex: read statistics: %w", err)
	}
	if slotSec <= 0 || 86400%slotSec != 0 {
		return nil, xerr.Markf(xerr.KindCorrupt, "conindex: invalid slot seconds %d", slotSec)
	}
	if numSeg != net.NumSegments() {
		return nil, xerr.Markf(xerr.KindCorrupt, "conindex: saved over %d segments, network has %d", numSeg, net.NumSegments())
	}
	if numSeg > maxRowSegments {
		return nil, fmt.Errorf("conindex: network too large (%d segments, max %d)", numSeg, maxRowSegments)
	}
	numSlots := 86400 / slotSec
	present := bytes.Repeat([]byte{0xff}, (numSlots+7)/8)
	if version == conVersion {
		if present = bytes.Clone(fr.Next(len(present))); present == nil {
			return nil, fmt.Errorf("conindex: read statistics: %w", fr.Err())
		}
		if numSlots%8 != 0 && present[len(present)-1]>>(numSlots%8) != 0 {
			return nil, xerr.Markf(xerr.KindCorrupt, "conindex: a slot past the last of %d is marked present", numSlots)
		}
	}
	type slotRow struct {
		slot int
		row  *slotSpeeds
	}
	var rows []slotRow
	for s := 0; s < numSlots; s++ {
		if present[s>>3]&(1<<(s&7)) == 0 {
			continue
		}
		row, err := readSlot(fr, numSeg)
		if err != nil {
			return nil, fmt.Errorf("conindex: read statistics of slot %d: %w", s, err)
		}
		rows = append(rows, slotRow{s, row})
	}
	if err := fr.Finish(); err != nil {
		return nil, fmt.Errorf("conindex: read statistics: %w", err)
	}
	x := newIndex(net, slotSec)
	for _, sr := range rows {
		if !sr.row.sampled() {
			// Version 3 wrote every slot; one without a sample held the
			// fallback speeds, which the index reads without a row.
			if version == conV3 && sr.row.sameCells(x.fallback) {
				continue
			}
			return nil, xerr.Markf(xerr.KindCorrupt, "conindex: slot %d is stored and has no sample", sr.slot)
		}
		x.speeds[sr.slot].Store(sr.row)
	}
	return x, nil
}

// readSlot reads one slot's n records, its arrays sized by what fr can
// still hold.
func readSlot(fr *storage.ChecksumReader, n int) (*slotSpeeds, error) {
	c := int(min(int64(n), fr.Remaining()/16))
	r := &slotSpeeds{make([]uint32, 0, c), make([]uint32, 0, c), make([]uint32, 0, c), make([]uint32, 0, c)}
	for i := 0; i < n; i++ {
		b := fr.Next(16)
		if b == nil {
			return nil, fr.Err()
		}
		r.min = append(r.min, binary.LittleEndian.Uint32(b[0:4]))
		r.max = append(r.max, binary.LittleEndian.Uint32(b[4:8]))
		r.sum = append(r.sum, binary.LittleEndian.Uint32(b[8:12]))
		r.cnt = append(r.cnt, binary.LittleEndian.Uint32(b[12:16]))
	}
	return r, nil
}
