package stindex

import (
	"bufio"
	"encoding/binary"
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
// Meta format (little endian):
//
//	magic "STIX" | version u16 | slotSec u32 | days u32 |
//	baseDate unix s i64 | numSegments u32 | blob tail i64 |
//	pagesCRC u32 (v3+) |
//	numHandles u32 | numHandles x (offset i64, length i32) |
//	metaCRC u32 (v3+, CRC-32C of every preceding byte incl. magic)

// Version history: v1 indexes hold sorted-ID time-list blobs, v2 indexes
// hold bitset blobs (bits.go). Blobs are self-tagged, so v1 indexes load
// and decode transparently. v3 adds two CRC-32C checksums: pagesCRC over
// the page store's full contents (the time-list blobs) and a trailing
// metaCRC over the meta bytes themselves, so a flipped bit in either
// file is detected at load instead of surfacing as a wrong answer. v4
// narrows pagesCRC to the first `tail` bytes of the page store — the
// bytes this meta's handles can reach. The blob file is append-only, so
// a compaction that appended new blobs but crashed before installing its
// meta leaves bytes only beyond the old tail: a v4 meta still verifies
// and reopens over them (the WAL replays the unfolded rest), where a v3
// meta would declare the whole store corrupt and force a cold rebuild.
// v5 keeps v4's layout and marks an index whose blobs are packed
// (bits.go): a binary that predates the packed format refuses the meta
// at open instead of failing on every query. New indexes are always
// saved as v5; v1-v4 metas still load (v3 with its whole-store check)
// and their legacy blobs verify through the decoder until compaction
// rewrites them. Trailing garbage is rejected so a corrupted version
// field cannot silently downgrade a checksummed file. The day count must
// be below maxDays, the blob tail inside the page store and every handle
// inside the tail: v1 and v2 metas carry no checksum to vouch for them,
// and a probe sizes its slices by the day count and a read by the handle.
const (
	metaMagic      = "STIX"
	metaVersion    = 5
	metaVersionMin = 1
)

// PagesChecksum computes the CRC-32C of the page store's full contents,
// unflushed dirty pages included — exactly the bytes a flush would
// persist. This is the v3 meta check.
func (x *Index) PagesChecksum() (uint32, error) {
	return x.PagesChecksumN(x.pool.NumPages() * storage.PageSize)
}

// PagesChecksumN computes the CRC-32C of the first limit bytes of the
// page store, unflushed dirty pages included. v4 metas record the
// checksum of the first Tail() bytes — everything their handles can
// reach — so blobs appended after the meta was saved (a compaction that
// crashed before its meta install) do not invalidate it. The walk goes
// through one page buffer and admits nothing to the pool: it runs at
// every open and every durable compaction, over every page there is.
func (x *Index) PagesChecksumN(limit int64) (uint32, error) {
	h := storage.NewChecksum()
	remain := limit
	n := x.pool.NumPages()
	buf := make([]byte, storage.PageSize)
	for id := storage.PageID(0); int64(id) < n && remain > 0; id++ {
		if err := x.pool.ReadPageInto(id, buf); err != nil {
			return 0, fmt.Errorf("stindex: checksum page %d: %w", id, err)
		}
		page := buf
		if remain < int64(len(page)) {
			page = page[:remain]
		}
		h.Write(page)
		remain -= int64(len(page))
	}
	if remain > 0 {
		return 0, fmt.Errorf("stindex: page store holds %d bytes, checksum needs %d", n*storage.PageSize, limit)
	}
	return h.Sum32(), nil
}

// SaveMeta writes the index metadata. The page store must be flushed (or
// the index Closed) separately for the blobs to be durable. SaveMeta
// holds the compaction lock so the handle table, blob tail, and page
// contents it records are one consistent snapshot even while the live
// delta layer keeps accepting appends.
func (x *Index) SaveMeta(w io.Writer) error {
	x.live.compactMu.Lock()
	defer x.live.compactMu.Unlock()
	// v4+: the checksum covers exactly the bytes the handle table can
	// reach, so later appends never invalidate this meta.
	pagesCRC, err := x.PagesChecksumN(x.blob.Tail())
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	h := storage.NewChecksum()
	tee := io.MultiWriter(bw, h)
	if _, err := io.WriteString(tee, metaMagic); err != nil {
		return fmt.Errorf("stindex: write meta magic: %w", err)
	}
	var buf [12]byte
	u16 := func(v uint16) error {
		binary.LittleEndian.PutUint16(buf[:2], v)
		_, err := tee.Write(buf[:2])
		return err
	}
	u32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], v)
		_, err := tee.Write(buf[:4])
		return err
	}
	u64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(buf[:8], v)
		_, err := tee.Write(buf[:8])
		return err
	}
	if err := u16(metaVersion); err != nil {
		return err
	}
	if err := u32(uint32(x.slotSec)); err != nil {
		return err
	}
	if err := u32(uint32(x.days)); err != nil {
		return err
	}
	if err := u64(uint64(x.baseDate.Unix())); err != nil {
		return err
	}
	if err := u32(uint32(x.net.NumSegments())); err != nil {
		return err
	}
	if err := u64(uint64(x.blob.Tail())); err != nil {
		return err
	}
	if err := u32(pagesCRC); err != nil {
		return err
	}
	// The table goes out flat, slot-major, a slot without a row as
	// numSegments zero handles.
	nseg := x.net.NumSegments()
	if err := u32(uint32(x.numSlots * nseg)); err != nil {
		return err
	}
	handles := x.liveHandles()
	for slot := range handles {
		for seg := 0; seg < nseg; seg++ {
			hd := handles.at(slot, seg)
			binary.LittleEndian.PutUint64(buf[:8], uint64(hd.Offset))
			binary.LittleEndian.PutUint32(buf[8:12], uint32(hd.Length))
			if _, err := tee.Write(buf[:12]); err != nil {
				return fmt.Errorf("stindex: write handle: %w", err)
			}
		}
	}
	// Trailing meta checksum, written outside the tee: it covers
	// everything before itself.
	binary.LittleEndian.PutUint32(buf[:4], h.Sum32())
	if _, err := bw.Write(buf[:4]); err != nil {
		return fmt.Errorf("stindex: write meta checksum: %w", err)
	}
	return bw.Flush()
}

// LoadIndex reopens a persisted index: net must be the same network it
// was built over (the network is deterministic from its generator config
// or its own codec), and cfg.Store must hold the original pages.
//
// v3 metas are verified end to end: the trailing meta checksum first,
// then the page store's contents against the recorded pages checksum. A
// mismatch returns an error (wrapped as corrupt data by the caller's
// taxonomy) — LoadIndex never installs an index over bytes it cannot
// vouch for.
func LoadIndex(net *roadnet.Network, cfg Config, meta io.Reader) (*Index, error) {
	cfg = cfg.withDefaults()
	br := bufio.NewReader(meta)
	h := storage.NewChecksum()
	tee := io.TeeReader(br, h)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(tee, magic); err != nil {
		return nil, fmt.Errorf("stindex: read meta magic: %w", err)
	}
	if string(magic) != metaMagic {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: bad meta magic %q", magic)
	}
	var buf [12]byte
	u16 := func() (uint16, error) {
		if _, err := io.ReadFull(tee, buf[:2]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint16(buf[:2]), nil
	}
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(tee, buf[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:4]), nil
	}
	u64 := func() (uint64, error) {
		if _, err := io.ReadFull(tee, buf[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:8]), nil
	}
	ver, err := u16()
	if err != nil {
		return nil, fmt.Errorf("stindex: read meta version: %w", err)
	}
	if ver < metaVersionMin || ver > metaVersion {
		return nil, fmt.Errorf("stindex: unsupported meta version %d", ver)
	}
	slotSec, err := u32()
	if err != nil {
		return nil, err
	}
	days, err := u32()
	if err != nil {
		return nil, err
	}
	baseUnix, err := u64()
	if err != nil {
		return nil, err
	}
	numSeg, err := u32()
	if err != nil {
		return nil, err
	}
	if int(numSeg) != net.NumSegments() {
		return nil, fmt.Errorf("stindex: meta built over %d segments, network has %d", numSeg, net.NumSegments())
	}
	tail, err := u64()
	if err != nil {
		return nil, err
	}
	var pagesCRC uint32
	if ver >= 3 {
		if pagesCRC, err = u32(); err != nil {
			return nil, fmt.Errorf("stindex: read pages checksum: %w", err)
		}
	}
	numHandles, err := u32()
	if err != nil {
		return nil, err
	}
	if slotSec == 0 || 86400%int(slotSec) != 0 {
		return nil, fmt.Errorf("stindex: meta has invalid slot seconds %d", slotSec)
	}
	numSlots := 86400 / int(slotSec)
	if int(numHandles) != numSlots*int(numSeg) {
		return nil, fmt.Errorf("stindex: meta has %d handles, want %d", numHandles, numSlots*int(numSeg))
	}
	if days == 0 || days >= maxDays {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta has %d days, want 1..%d", days, maxDays-1)
	}
	if stored := cfg.Store.NumPages() * storage.PageSize; int64(tail) < 0 || int64(tail) > stored {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta blob tail %d is past the page store's %d bytes", tail, stored)
	}

	handles := make(handleTable, numSlots)
	for i := 0; i < int(numHandles); i++ {
		if _, err := io.ReadFull(tee, buf[:12]); err != nil {
			return nil, fmt.Errorf("stindex: read handle %d: %w", i, err)
		}
		h := storage.BlobHandle{
			Offset: int64(binary.LittleEndian.Uint64(buf[:8])),
			Length: int32(binary.LittleEndian.Uint32(buf[8:12])),
		}
		if h.Offset < 0 || h.Length < 0 || h.Offset > int64(tail)-int64(h.Length) {
			return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta handle %d (offset %d, length %d) is past the blob tail %d", i, h.Offset, h.Length, tail)
		}
		handles.set(i/int(numSeg), i%int(numSeg), int(numSeg), h)
	}
	if ver >= 3 {
		// The stored checksum is read from br directly: it is not part of
		// its own coverage.
		want := h.Sum32()
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("stindex: read meta checksum: %w", err)
		}
		if got := binary.LittleEndian.Uint32(buf[:4]); got != want {
			return nil, xerr.Markf(xerr.KindCorrupt, "stindex: meta checksum mismatch (stored %08x, computed %08x)", got, want)
		}
	}
	// Every version must end exactly here; trailing bytes mean the file
	// is not what its version field claims (e.g. a v3 meta whose version
	// field itself took the bit flip).
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, xerr.Markf(xerr.KindCorrupt, "stindex: trailing bytes after v%d meta", ver)
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
		blob:     storage.ReopenBlobFile(pool, int64(tail)),
		live:     newLiveState(handles),
		cache:    newTLCache(cfg.TimeListCache),
	}
	switch {
	case ver >= 4:
		// v4 covers the first tail bytes only: blobs appended by a
		// compaction that crashed before its meta landed sit beyond the
		// tail and are unreachable garbage, not corruption.
		got, err := idx.PagesChecksumN(int64(tail))
		if err != nil {
			return nil, err
		}
		if got != pagesCRC {
			return nil, xerr.Markf(xerr.KindCorrupt, "stindex: page store checksum mismatch (stored %08x, computed %08x)", pagesCRC, got)
		}
	case ver == 3:
		got, err := idx.PagesChecksum()
		if err != nil {
			return nil, err
		}
		if got != pagesCRC {
			return nil, xerr.Markf(xerr.KindCorrupt, "stindex: page store checksum mismatch (stored %08x, computed %08x)", pagesCRC, got)
		}
	}
	return idx, nil
}
