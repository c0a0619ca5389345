package stindex

import (
	"fmt"
	"io"
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
// The meta is a storage frame (magic "STIX", version 6) whose payload is,
// little endian:
//
//	slotSec u32 | days u32 | baseDate unix s i64 | numSegments u32 |
//	blob tail i64 | pagesCRC u32 |
//	numSlots x numSegments x (offset i64, length i32)
//
// The handles go out flat, slot-major, a slot without a list as zero
// handles. pagesCRC is the CRC-32C of the first `tail` bytes of the
// page store — the bytes the handles can reach. The blob file is
// append-only, so a compaction that appended new blobs but crashed
// before installing its meta leaves bytes only beyond the old tail: the
// old meta still verifies and reopens over them, and the WAL replays
// the unfolded rest. The day count must be below maxDays, the blob tail
// inside the page store and every handle inside the tail: a probe sizes
// its slices by the day count and a read by the handle. A meta of any
// other version — the layouts before the frame — does not load, and the
// facade rebuilds the index from its trajectories.
const (
	metaMagic   = "STIX"
	metaVersion = 6
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
	nseg := x.net.NumSegments()
	fw := storage.NewChecksumWriter(w, metaMagic, metaVersion)
	fw.Uint32(uint32(x.slotSec))
	fw.Uint32(uint32(x.days))
	fw.Uint64(uint64(x.baseDate.Unix()))
	fw.Uint32(uint32(nseg))
	fw.Uint64(uint64(tail))
	fw.Uint32(pagesCRC)
	handles := x.liveHandles()
	for slot := range handles {
		for seg := 0; seg < nseg; seg++ {
			hd := handles.at(slot, seg)
			fw.Uint64(uint64(hd.Offset))
			fw.Uint32(uint32(hd.Length))
		}
	}
	if err := fw.Finish(); err != nil {
		return fmt.Errorf("stindex: write meta: %w", err)
	}
	return nil
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
	fr, err := storage.NewChecksumReader(meta, metaMagic, metaVersion)
	if err != nil {
		return nil, fmt.Errorf("stindex: read meta: %w", err)
	}
	slotSec, days, baseUnix := fr.Uint32(), fr.Uint32(), fr.Uint64()
	numSeg, tail, pagesCRC := int(fr.Uint32()), int64(fr.Uint64()), fr.Uint32()
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("stindex: read meta: %w", err)
	}
	if numSeg != net.NumSegments() {
		return nil, fmt.Errorf("stindex: meta built over %d segments, network has %d", numSeg, net.NumSegments())
	}
	if slotSec == 0 || 86400%slotSec != 0 {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta has invalid slot seconds %d", slotSec)
	}
	if days == 0 || days >= maxDays {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta has %d days, want 1..%d", days, maxDays-1)
	}
	if stored := cfg.Store.NumPages() * storage.PageSize; tail < 0 || tail > stored {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta blob tail %d is past the page store's %d bytes", tail, stored)
	}
	// One row of handles per slot: the table is sized by the rows the
	// meta can hold, not by the slot count it claims.
	numSlots := 86400 / int(slotSec)
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
		baseDate: time.Unix(int64(baseUnix), 0).UTC(),
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
