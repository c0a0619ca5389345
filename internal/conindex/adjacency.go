package conindex

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"streach/internal/bitset"
	"streach/internal/roadnet"
	"streach/internal/storage"
	"streach/internal/xerr"
)

// Adjacency persistence: the materialised Near/Far rows of all four
// tables, so a reopened system answers cold queries from warmed
// adjacency instead of re-running travel-time Dijkstras. The blob is a
// derived cache — loading is optional and an absent or stale blob only
// costs lazy re-materialisation.
//
// Format (little endian), rows sorted by (table, slot, segment):
//
//	magic "CADJ" | version u16 | slotSec u32 | numSegments u32 |
//	numRows u32, then per row:
//	    table u8      0=far 1=near 2=farRev 3=nearRev
//	    slot u32 | seg u32
//	    enc u8        0=sparse sorted-ID list, 1=bitset
//	    sparse: count u32, count x u32 segment IDs
//	    bitset: nwords u32, nwords x u64 (trailing zero words trimmed)
//	then crc u32 (v2+, CRC-32C of every preceding byte incl. magic)
//
// The sparse/bitset choice is the record's own (the in-memory rows have
// one form, see Row): a bitset costs numSegments/8 bytes and a list 4
// bytes per member, so rows of fewer than numSegments/32 members ship as
// ID lists and the rest as word arrays, as in the v2 time-list format,
// and blob size stays proportional to what was materialised.
//
// v2 adds the trailing checksum, and loading became transactional: rows
// are parsed and validated first, the checksum (or, on v1, a strict
// EOF) is verified, and only then is anything installed — a corrupt
// blob warms nothing instead of warming a prefix.
const (
	adjMagic      = "CADJ"
	adjVersion    = 2
	adjVersionMin = 1
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
	tee := storage.NewChecksumWriter(w)
	if _, err := io.WriteString(tee, adjMagic); err != nil {
		return fmt.Errorf("conindex: write adjacency magic: %w", err)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint16(buf[:2], adjVersion)
	tee.Write(buf[:2])
	binary.LittleEndian.PutUint32(buf[:4], uint32(x.slotSec))
	tee.Write(buf[:4])
	binary.LittleEndian.PutUint32(buf[:4], uint32(x.net.NumSegments()))
	tee.Write(buf[:4])

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
	binary.LittleEndian.PutUint32(buf[:4], uint32(numRows))
	if _, err := tee.Write(buf[:4]); err != nil {
		return err
	}
	for ti, rows := range snaps {
		for _, sr := range rows {
			if err := writeAdjRow(tee, uint8(ti), sr.slot, sr.seg, sr.row, x.net.NumSegments()); err != nil {
				return err
			}
		}
	}
	if err := tee.Finish(); err != nil {
		return fmt.Errorf("conindex: write adjacency checksum: %w", err)
	}
	return nil
}

func writeAdjRow(w *storage.ChecksumWriter, tableID uint8, slot int, seg roadnet.SegmentID, r Row, numSegments int) error {
	var buf [8]byte
	buf[0] = tableID
	if _, err := w.Write(buf[:1]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(slot))
	w.Write(buf[:4])
	binary.LittleEndian.PutUint32(buf[:4], uint32(seg))
	w.Write(buf[:4])
	idx, words := r.parts()
	if !adjSparse(r.Len(), numSegments) {
		// Words 0 through the row's last non-zero word, the gaps between
		// its non-zero words written as zeros.
		buf[0] = adjEncBitset
		w.Write(buf[:1])
		binary.LittleEndian.PutUint32(buf[:4], uint32(idx[len(idx)-1])+1)
		w.Write(buf[:4])
		var zero [8]byte
		next := 0
		for i, wd := range words {
			for ; next < int(idx[i]); next++ {
				if _, err := w.Write(zero[:]); err != nil {
					return err
				}
			}
			binary.LittleEndian.PutUint64(buf[:8], wd)
			if _, err := w.Write(buf[:8]); err != nil {
				return err
			}
			next++
		}
		return nil
	}
	buf[0] = adjEncSparse
	w.Write(buf[:1])
	binary.LittleEndian.PutUint32(buf[:4], uint32(r.Len()))
	w.Write(buf[:4])
	for i, wd := range words {
		for base := uint32(idx[i]) << 6; wd != 0; wd &= wd - 1 {
			binary.LittleEndian.PutUint32(buf[:4], base+uint32(bits.TrailingZeros64(wd)))
			if _, err := w.Write(buf[:4]); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadAdjacency restores rows persisted with SaveAdjacency into the
// index's tables, replacing any rows already materialised for the same
// keys. The blob must match the index's Δt and segment count. Nothing is
// installed until the whole blob has parsed, validated, and (v2)
// checksum-verified: a corrupt blob is rejected in full. Records are
// accepted only in the form SaveAdjacency writes them — keys ascending
// and unique, each row in its own encoding, bitsets trimmed — so a
// loaded blob re-saves byte for byte (a v1 blob as its v2 form).
func (x *Index) LoadAdjacency(r io.Reader) error {
	br := bufio.NewReader(r)
	h := storage.NewChecksum()
	tee := io.TeeReader(br, h)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(tee, magic); err != nil {
		return fmt.Errorf("conindex: read adjacency magic: %w", err)
	}
	if string(magic) != adjMagic {
		return fmt.Errorf("conindex: bad adjacency magic %q", magic)
	}
	var buf [8]byte
	if _, err := io.ReadFull(tee, buf[:2]); err != nil {
		return fmt.Errorf("conindex: read adjacency version: %w", err)
	}
	ver := binary.LittleEndian.Uint16(buf[:2])
	if ver < adjVersionMin || ver > adjVersion {
		return fmt.Errorf("conindex: unsupported adjacency version %d", ver)
	}
	if _, err := io.ReadFull(tee, buf[:4]); err != nil {
		return err
	}
	if got := int(binary.LittleEndian.Uint32(buf[:4])); got != x.slotSec {
		return fmt.Errorf("conindex: adjacency slot seconds %d, index has %d", got, x.slotSec)
	}
	if _, err := io.ReadFull(tee, buf[:4]); err != nil {
		return err
	}
	numSeg := x.net.NumSegments()
	if got := int(binary.LittleEndian.Uint32(buf[:4])); got != numSeg {
		return fmt.Errorf("conindex: adjacency over %d segments, network has %d", got, numSeg)
	}
	if _, err := io.ReadFull(tee, buf[:4]); err != nil {
		return err
	}
	numRows := int(binary.LittleEndian.Uint32(buf[:4]))
	tables := x.adjTables()
	maxWords := (numSeg + 63) / 64
	type pendingRow struct {
		tableID uint8
		slot    int
		seg     roadnet.SegmentID
		row     Row
	}
	// The row count is the header's word, not evidence that the rows are
	// there: pending is sized from it only as far as the file's length
	// can back it (a record takes at least 14 bytes), and grows as rows
	// arrive past that.
	pending := make([]pendingRow, 0, min(int64(numRows), fileSize(r)/14))
	// Record payloads are decoded into these and compressed out of them,
	// so they are reused from row to row.
	var (
		ids     []roadnet.SegmentID
		words   []uint64
		scratch = bitset.New(numSeg)
	)
	var hdr [1 + 4 + 4 + 1 + 4]byte
	for i := 0; i < numRows; i++ {
		if _, err := io.ReadFull(tee, hdr[:]); err != nil {
			return fmt.Errorf("conindex: read adjacency row %d: %w", i, err)
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
				if _, err := io.ReadFull(tee, buf[:4]); err != nil {
					return fmt.Errorf("conindex: read adjacency row %d: %w", i, err)
				}
				id := binary.LittleEndian.Uint32(buf[:4])
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
				if _, err := io.ReadFull(tee, buf[:8]); err != nil {
					return fmt.Errorf("conindex: read adjacency row %d: %w", i, err)
				}
				words = append(words, binary.LittleEndian.Uint64(buf[:8]))
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
	if ver >= 2 {
		// The stored checksum is read from br directly: it is not part
		// of its own coverage.
		want := h.Sum32()
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return fmt.Errorf("conindex: read adjacency checksum: %w", err)
		}
		if got := binary.LittleEndian.Uint32(buf[:4]); got != want {
			return xerr.Markf(xerr.KindCorrupt, "conindex: adjacency checksum mismatch (stored %08x, computed %08x)", got, want)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return xerr.Markf(xerr.KindCorrupt, "conindex: trailing bytes after v%d adjacency blob", ver)
	}
	for _, p := range pending {
		tables[p.tableID].put(p.slot, p.seg, p.row)
		x.stats.loaded.Add(1)
	}
	return nil
}
