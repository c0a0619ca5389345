package stindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"streach/internal/roadnet"
	"streach/internal/storage"
	"streach/internal/xerr"
)

// Index persistence: the time-list blobs already live in the page store
// (a file when built over storage.FileStore); SaveMeta serializes the
// remaining in-memory state — granularity, day range, blob tail, and the
// handle table — so the index can be reopened without rebuilding from
// trajectories.
//
// The meta is a storage frame (magic "STIX", version 7) whose payload is,
// little endian:
//
//	slotSec u32 | days u32 | baseDate unix s i64 | numSegments u32 |
//	blob tail i64 | pagesCRC u32 |
//	present [(numSlots+7)/8]byte, bit s%8 of byte s/8 for slot s |
//	per present slot, numSegments handles:
//	    length uvarint | gap zigzag varint, only when length > 0
//
// Only the slots that hold a list are written: a fleet that works a
// shift leaves most of a day empty. A handle's gap is its offset less
// the end of the previous non-empty handle, in slot and then segment
// order (0 for the first). Build appends the lists back to back in
// that order, so a built handle's gap is 0; a key a compaction folded
// sits at the blob tail and has a gap of its own, as has the handle
// after it. The
// form is canonical — shortest varints, no bit past the last slot, no
// present slot without a list — so a loaded meta saves back byte for
// byte. pagesCRC is the CRC-32C of the first `tail` bytes of the
// page store — the bytes the handles can reach. The blob file is
// append-only, so a compaction that appended new blobs but crashed
// before installing its meta leaves bytes only beyond the old tail: the
// old meta still verifies and reopens over them, and the WAL replays
// the unfolded rest. The day count must be below maxDays, the base date
// a time, the blob tail past the reserved byte 0 and inside the page
// store, and every handle inside the tail: a probe sizes its slices by
// the day count and a read by the handle.
//
// Version 6, the layout before this one, has the same header and then
// numSlots x numSegments x (offset i64, length i32), flat and
// slot-major, an empty slot as zero handles. LoadIndex still reads it,
// so a directory saved by that build opens without a rebuild: a rebuild
// would drop the live updates a durable compaction folded into the
// index, whose only durable copy is the index itself. The next SaveMeta
// writes version 7. A meta of any other version — the layouts before
// the frame — does not load, and the facade rebuilds the index from its
// trajectories.
const (
	metaMagic   = "STIX"
	metaVersion = 7
	metaV6      = 6
)

// SaveMeta writes the index metadata. The page store must be flushed (or
// the index Closed) separately for the blobs to be durable. SaveMeta
// holds the compaction lock so the handle table, blob tail, and page
// contents it records are one consistent snapshot even while the live
// delta layer keeps accepting appends.
func (x *Index) SaveMeta(w io.Writer) error {
	x.live.compactMu.Lock()
	defer x.live.compactMu.Unlock()
	tail := x.blob.Tail()
	pagesCRC, err := x.pool.Checksum(tail)
	if err != nil {
		return err
	}
	fw := storage.NewChecksumWriter(w, metaMagic, metaVersion)
	fw.Uint32(uint32(x.slotSec))
	fw.Uint32(uint32(x.days))
	fw.Uint64(uint64(x.baseDate.Unix()))
	fw.Uint32(uint32(x.net.NumSegments()))
	fw.Uint64(uint64(tail))
	fw.Uint32(pagesCRC)
	handles := x.liveHandles()
	present := make([]byte, (len(handles)+7)/8)
	for slot, row := range handles {
		if holdsList(row) {
			present[slot>>3] |= 1 << (slot & 7)
		}
	}
	fw.Write(present)
	var rec []byte
	var end int64
	for slot, row := range handles {
		if present[slot>>3]&(1<<(slot&7)) == 0 {
			continue
		}
		rec = rec[:0]
		for _, h := range row {
			rec = binary.AppendUvarint(rec, uint64(h.Length))
			if h.Length > 0 {
				rec = binary.AppendVarint(rec, h.Offset-end)
				end = h.Offset + int64(h.Length)
			}
		}
		fw.Write(rec)
	}
	if err := fw.Finish(); err != nil {
		return fmt.Errorf("stindex: write meta: %w", err)
	}
	return nil
}

// holdsList reports whether a slot's row locates at least one list.
func holdsList(row []storage.BlobHandle) bool {
	for _, h := range row {
		if h.Length > 0 {
			return true
		}
	}
	return false
}

// LoadIndex reopens a persisted index: net must be the same network it
// was built over (the network is deterministic from its generator config
// or its own codec), and cfg.Store must hold the original pages.
//
// The meta is verified as it is read (its frame's checksums), then the
// page store's first tail bytes against the recorded pages checksum. A
// mismatch returns an error marked corrupt — LoadIndex never installs an
// index over bytes it cannot vouch for.
func LoadIndex(net *roadnet.Network, cfg Config, meta io.Reader) (*Index, error) {
	cfg = cfg.withDefaults()
	fr, err := storage.NewChecksumReader(meta, metaMagic, metaVersion, metaV6)
	if err != nil {
		return nil, fmt.Errorf("stindex: read meta: %w", err)
	}
	slotSec, days, baseUnix := fr.Uint32(), fr.Uint32(), fr.Uint64()
	numSeg, tail, pagesCRC := int(fr.Uint32()), int64(fr.Uint64()), fr.Uint32()
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("stindex: read meta: %w", err)
	}
	if numSeg != net.NumSegments() {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta built over %d segments, network has %d", numSeg, net.NumSegments())
	}
	if slotSec == 0 || 86400%slotSec != 0 {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta has invalid slot seconds %d", slotSec)
	}
	if days == 0 || days >= maxDays {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta has %d days, want 1..%d", days, maxDays-1)
	}
	baseDate := time.Unix(int64(baseUnix), 0).UTC()
	if baseDate.Unix() != int64(baseUnix) {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta has a base date of %d s, past what a time holds", int64(baseUnix))
	}
	// Offset 0 is never written (a zero handle means no list), so a tail
	// is at least 1.
	if stored := cfg.Store.NumPages() * storage.PageSize; tail < 1 || tail > stored {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta blob tail %d is past the page store's %d bytes", tail, stored)
	}
	numSlots := 86400 / int(slotSec)
	readHandles := readSparseHandles
	if fr.Version() == metaV6 {
		readHandles = readDenseHandles
	}
	handles, err := readHandles(fr, numSlots, numSeg, tail)
	if err != nil {
		return nil, err
	}
	if err := fr.Finish(); err != nil {
		return nil, fmt.Errorf("stindex: read meta: %w", err)
	}

	pool, err := storage.NewBufferPool(cfg.Store, cfg.PoolPages)
	if err != nil {
		return nil, err
	}
	idx := &Index{
		net:      net,
		slotSec:  int(slotSec),
		numSlots: numSlots,
		days:     int(days),
		baseDate: baseDate,
		pool:     pool,
		blob:     storage.ReopenBlobFile(pool, tail),
		live:     newLiveState(handles),
		cache:    newTLCache(cfg.TimeListCache),
	}
	// Blobs appended by a compaction that crashed before its meta landed
	// sit beyond the tail and are unreachable garbage, not corruption.
	got, err := idx.pool.Checksum(tail)
	if err != nil {
		return nil, err
	}
	if got != pagesCRC {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: page store checksum mismatch (stored %08x, computed %08x)", pagesCRC, got)
	}
	return idx, nil
}

// readSparseHandles reads a version 7 handle table: the slot presence
// bitmap, then each present slot's handles. Every slice is sized by the
// bytes the frame still holds, never by a count in it.
func readSparseHandles(fr *storage.ChecksumReader, numSlots, numSeg int, tail int64) (handleTable, error) {
	present := bytes.Clone(fr.Next((numSlots + 7) / 8))
	if present == nil {
		return nil, fmt.Errorf("stindex: read meta slots: %w", fr.Err())
	}
	if numSlots%8 != 0 && present[len(present)-1]>>(numSlots%8) != 0 {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta marks a slot past the last of %d", numSlots)
	}
	handles := make(handleTable, numSlots)
	var end int64
	for slot := range handles {
		if present[slot>>3]&(1<<(slot&7)) == 0 {
			continue
		}
		// A handle takes at least a byte.
		row := make([]storage.BlobHandle, 0, min(int64(numSeg), fr.Remaining()))
		for seg := 0; seg < numSeg; seg++ {
			var h storage.BlobHandle
			length, u := int64(fr.Uvarint(math.MaxInt32)), uint64(0)
			if length > 0 {
				u = fr.Uvarint(math.MaxInt64)
			}
			if err := fr.Err(); err != nil {
				return nil, fmt.Errorf("stindex: read meta handles: %w", err)
			}
			if length > 0 {
				gap := int64(u>>1) ^ -int64(u&1)
				if gap < -end || gap > tail-end-length {
					return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta handle (slot %d, seg %d) of length %d at gap %d after %d is outside the blob tail %d", slot, seg, length, gap, end, tail)
				}
				h = storage.BlobHandle{Offset: end + gap, Length: int32(length)}
				end += gap + length
			}
			row = append(row, h)
		}
		if !holdsList(row) {
			return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta marks slot %d present, and it holds no list", slot)
		}
		handles[slot] = row
	}
	return handles, nil
}

// readDenseHandles reads a version 6 handle table: every slot's
// handles, a slot without a list as zero handles.
func readDenseHandles(fr *storage.ChecksumReader, numSlots, numSeg int, tail int64) (handleTable, error) {
	// One row of handles per slot: the table is sized by the rows the
	// meta can hold, not by the slot count it claims.
	handles := make(handleTable, 0, min(int64(numSlots), fr.Remaining()/int64(12*max(numSeg, 1))))
	for slot := 0; slot < numSlots; slot++ {
		var row []storage.BlobHandle
		for seg := 0; seg < numSeg; seg++ {
			h := storage.BlobHandle{Offset: int64(fr.Uint64()), Length: int32(fr.Uint32())}
			if h.Offset < 0 || h.Length < 0 || h.Offset > tail-int64(h.Length) {
				return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta handle (slot %d, seg %d) at offset %d, length %d is past the blob tail %d", slot, seg, h.Offset, h.Length, tail)
			}
			if !h.IsZero() && row == nil {
				row = make([]storage.BlobHandle, numSeg)
			}
			if row != nil {
				row[seg] = h
			}
		}
		if err := fr.Err(); err != nil {
			return nil, fmt.Errorf("stindex: read meta handles: %w", err)
		}
		handles = append(handles, row)
	}
	return handles, nil
}
