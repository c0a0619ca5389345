package conindex

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"streach/internal/bitset"
	"streach/internal/roadnet"
	"streach/internal/storage"
)

// Adjacency persistence: the materialised Near/Far rows of all four
// tables, so a reopened system answers cold queries from warmed
// adjacency instead of re-running travel-time Dijkstras. The blob is a
// derived cache — loading is optional and an absent or stale blob only
// costs lazy re-materialisation.
//
// The file is a storage frame (magic "CADJ", version 3) whose payload
// is, little endian, rows sorted by (table, slot, segment):
//
//	slotSec u32 | numSegments u32 | numRows u32, then per row:
//	    table u8      0=far 1=near 2=farRev 3=nearRev
//	    slot u32 | seg u32
//	    enc u8        0=sparse sorted-ID list, 1=bitset
//	    sparse: count u32, count x u32 segment IDs
//	    bitset: nwords u32, nwords x u64 (trailing zero words trimmed)
//
// The sparse/bitset choice is the record's own (the in-memory rows have
// one form, see Row): a bitset costs numSegments/8 bytes and a list 4
// bytes per member, so rows of fewer than numSegments/32 members ship as
// ID lists and the rest as word arrays, and blob size stays
// proportional to what was materialised.
//
// Loading is transactional: rows are parsed and validated, the frame is
// finished, and only then is anything installed — a corrupt blob warms
// nothing instead of warming a prefix. A blob of any other version is
// dropped like a corrupt one.
const (
	adjMagic   = "CADJ"
	adjVersion = 3
)

const (
	adjEncSparse = 0
	adjEncBitset = 1
)

// adjSparse reports whether a row of n members over numSegments
// segments is written as a sorted ID list rather than as a bitset.
func adjSparse(n, numSegments int) bool { return n*32 < numSegments }

// SaveAdjacency writes every materialised row of all four adjacency
// tables. Safe to call concurrently with queries (each table is walked
// through its atomic cells in key order; rows are immutable).
func (x *Index) SaveAdjacency(w io.Writer) error {
	// Snapshot first: the row count precedes the rows on disk, and the
	// tables keep changing under live queries and ingest.
	type snapRow struct {
		slot int
		seg  roadnet.SegmentID
		row  Row
	}
	var snaps [4][]snapRow
	numRows := 0
	for ti, t := range x.adjTables() {
		t.forEach(func(slot int, seg roadnet.SegmentID, r Row) {
			snaps[ti] = append(snaps[ti], snapRow{slot, seg, r})
		})
		numRows += len(snaps[ti])
	}
	fw := storage.NewChecksumWriter(w, adjMagic, adjVersion)
	fw.Uint32(uint32(x.slotSec))
	fw.Uint32(uint32(x.net.NumSegments()))
	fw.Uint32(uint32(numRows))
	for ti, rows := range snaps {
		for _, sr := range rows {
			writeAdjRow(fw, uint8(ti), sr.slot, sr.seg, sr.row, x.net.NumSegments())
		}
	}
	if err := fw.Finish(); err != nil {
		return fmt.Errorf("conindex: write adjacency: %w", err)
	}
	return nil
}

func writeAdjRow(w *storage.ChecksumWriter, tableID uint8, slot int, seg roadnet.SegmentID, r Row, numSegments int) {
	w.Uint8(tableID)
	w.Uint32(uint32(slot))
	w.Uint32(uint32(seg))
	idx, words := r.parts()
	if !adjSparse(r.Len(), numSegments) {
		// Words 0 through the row's last non-zero word, the gaps between
		// its non-zero words written as zeros.
		w.Uint8(adjEncBitset)
		w.Uint32(uint32(idx[len(idx)-1]) + 1)
		next := 0
		for i, wd := range words {
			for ; next < int(idx[i]); next++ {
				w.Uint64(0)
			}
			w.Uint64(wd)
			next++
		}
		return
	}
	w.Uint8(adjEncSparse)
	w.Uint32(uint32(r.Len()))
	for i, wd := range words {
		for base := uint32(idx[i]) << 6; wd != 0; wd &= wd - 1 {
			w.Uint32(base + uint32(bits.TrailingZeros64(wd)))
		}
	}
}

// LoadAdjacency restores rows persisted with SaveAdjacency into the
// index's tables, replacing any rows already materialised for the same
// keys. The blob must match the index's Δt and segment count. Nothing is
// installed until the whole blob has parsed, validated, and verified: a
// corrupt blob is rejected in full. Records are accepted only in the
// form SaveAdjacency writes them — keys ascending and unique, each row in
// its own encoding, bitsets trimmed — so a loaded blob re-saves byte for
// byte.
func (x *Index) LoadAdjacency(r io.Reader) error {
	fr, err := storage.NewChecksumReader(r, adjMagic, adjVersion)
	if err != nil {
		return fmt.Errorf("conindex: read adjacency: %w", err)
	}
	slotSec, numSeg, numRows := int(fr.Uint32()), int(fr.Uint32()), int(fr.Uint32())
	if err := fr.Err(); err != nil {
		return fmt.Errorf("conindex: read adjacency: %w", err)
	}
	if slotSec != x.slotSec {
		return fmt.Errorf("conindex: adjacency slot seconds %d, index has %d", slotSec, x.slotSec)
	}
	if numSeg != x.net.NumSegments() {
		return fmt.Errorf("conindex: adjacency over %d segments, network has %d", numSeg, x.net.NumSegments())
	}
	tables := x.adjTables()
	maxWords := (numSeg + 63) / 64
	type pendingRow struct {
		tableID uint8
		slot    int
		seg     roadnet.SegmentID
		row     Row
	}
	// The row count is the header's word, not evidence that the rows are
	// there: pending is sized from it only as far as the file can hold
	// the rows (a record takes at least 14 bytes), and grows as rows
	// arrive past that.
	pending := make([]pendingRow, 0, min(int64(numRows), fr.Remaining()/14))
	// Record payloads are decoded into these and compressed out of them,
	// so they are reused from row to row.
	var (
		ids     []roadnet.SegmentID
		words   []uint64
		scratch = bitset.New(numSeg)
	)
	for i := 0; i < numRows; i++ {
		hdr := fr.Next(14)
		if hdr == nil {
			return fmt.Errorf("conindex: read adjacency row %d: %w", i, fr.Err())
		}
		tableID := hdr[0]
		if int(tableID) >= len(tables) {
			return fmt.Errorf("conindex: adjacency row %d has bad table %d", i, tableID)
		}
		slot := int(binary.LittleEndian.Uint32(hdr[1:5]))
		seg := int(binary.LittleEndian.Uint32(hdr[5:9]))
		if slot >= x.numSlots || seg >= numSeg {
			return fmt.Errorf("conindex: adjacency row %d out of range (slot %d, seg %d)", i, slot, seg)
		}
		// The writer emits each key once, in (table, slot, segment)
		// order; a repeat or a step back is a corrupt record.
		if k := len(pending); k > 0 {
			p := pending[k-1]
			if cmp.Or(cmp.Compare(tableID, p.tableID), cmp.Compare(slot, p.slot), cmp.Compare(roadnet.SegmentID(seg), p.seg)) <= 0 {
				return fmt.Errorf("conindex: adjacency row %d out of key order", i)
			}
		}
		enc := hdr[9]
		count := int(binary.LittleEndian.Uint32(hdr[10:14]))
		var row Row
		switch enc {
		case adjEncSparse:
			if count > numSeg {
				return fmt.Errorf("conindex: adjacency row %d sparse count %d too large", i, count)
			}
			ids = ids[:0]
			for j := 0; j < count; j++ {
				id := fr.Uint32()
				if err := fr.Err(); err != nil {
					return fmt.Errorf("conindex: read adjacency row %d: %w", i, err)
				}
				if int(id) >= numSeg {
					return fmt.Errorf("conindex: adjacency row %d member %d out of range", i, id)
				}
				// The writer emits members strictly ascending; anything
				// else is a corrupt record.
				if j > 0 && roadnet.SegmentID(id) <= ids[j-1] {
					return fmt.Errorf("conindex: adjacency row %d members not strictly ascending", i)
				}
				ids = append(ids, roadnet.SegmentID(id))
			}
			if !adjSparse(count, numSeg) {
				return fmt.Errorf("conindex: adjacency row %d of %d members written as a list", i, count)
			}
			row = makeRow(ids, scratch)
		case adjEncBitset:
			if count > maxWords {
				return fmt.Errorf("conindex: adjacency row %d bitset words %d too large", i, count)
			}
			words = words[:0]
			for j := 0; j < count; j++ {
				words = append(words, fr.Uint64())
			}
			if err := fr.Err(); err != nil {
				return fmt.Errorf("conindex: read adjacency row %d: %w", i, err)
			}
			// The writer trims trailing zero words, and a member past the
			// network is out of range like any other.
			if count == 0 || words[count-1] == 0 {
				return fmt.Errorf("conindex: adjacency row %d bitset not trimmed", i)
			}
			if (count-1)<<6+bits.Len64(words[count-1]) > numSeg {
				return fmt.Errorf("conindex: adjacency row %d bitset member out of range", i)
			}
			row = packWords(0, words)
			if adjSparse(row.Len(), numSeg) {
				return fmt.Errorf("conindex: adjacency row %d of %d members written as a bitset", i, row.Len())
			}
		default:
			return fmt.Errorf("conindex: adjacency row %d has bad encoding %d", i, enc)
		}
		pending = append(pending, pendingRow{tableID: tableID, slot: slot, seg: roadnet.SegmentID(seg), row: row})
	}
	if err := fr.Finish(); err != nil {
		return fmt.Errorf("conindex: read adjacency: %w", err)
	}
	for _, p := range pending {
		tables[p.tableID].put(p.slot, p.seg, p.row)
		x.stats.loaded.Add(1)
	}
	return nil
}
