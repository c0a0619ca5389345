package conindex

import (
	"bufio"
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
// Format (little endian):
//
//	magic "CIDX" | version u16 | slotSec u32 | numSegments u32 |
//	then numSlots*numSegments x (min f32, max f32, sum f32, cnt u32) |
//	crc u32 (v2+, CRC-32C of every preceding byte incl. magic)
//
// v2 adds the trailing checksum so a flipped bit in the statistics is
// detected at load instead of skewing speed bounds (and with them query
// answers). v1 blobs still load, with a strict EOF check so a corrupted
// version field cannot silently downgrade a v2 file.
//
// The materialised adjacency rows are persisted separately (the blob is
// a warm cache, not part of the index's identity): see SaveAdjacency.
const (
	conMagic      = "CIDX"
	conVersion    = 2
	conVersionMin = 1
)

// Save writes the index's speed statistics.
func (x *Index) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	h := storage.NewChecksum()
	tee := io.MultiWriter(bw, h)
	if _, err := io.WriteString(tee, conMagic); err != nil {
		return fmt.Errorf("conindex: write magic: %w", err)
	}
	var buf [16]byte
	binary.LittleEndian.PutUint16(buf[:2], conVersion)
	if _, err := tee.Write(buf[:2]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(x.slotSec))
	if _, err := tee.Write(buf[:4]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(x.net.NumSegments()))
	if _, err := tee.Write(buf[:4]); err != nil {
		return err
	}
	for i := range x.minSpeed {
		binary.LittleEndian.PutUint32(buf[0:4], atomic.LoadUint32(&x.minSpeed[i]))
		binary.LittleEndian.PutUint32(buf[4:8], atomic.LoadUint32(&x.maxSpeed[i]))
		binary.LittleEndian.PutUint32(buf[8:12], atomic.LoadUint32(&x.sumSpeed[i]))
		binary.LittleEndian.PutUint32(buf[12:16], atomic.LoadUint32(&x.cntSpeed[i]))
		if _, err := tee.Write(buf[:16]); err != nil {
			return fmt.Errorf("conindex: write stats %d: %w", i, err)
		}
	}
	binary.LittleEndian.PutUint32(buf[:4], h.Sum32())
	if _, err := bw.Write(buf[:4]); err != nil {
		return fmt.Errorf("conindex: write checksum: %w", err)
	}
	return bw.Flush()
}

// Load reopens a saved index over the same network, verifying the
// trailing checksum on v2 blobs before trusting any statistic.
func Load(net *roadnet.Network, r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	h := storage.NewChecksum()
	tee := io.TeeReader(br, h)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(tee, magic); err != nil {
		return nil, fmt.Errorf("conindex: read magic: %w", err)
	}
	if string(magic) != conMagic {
		return nil, xerr.Markf(xerr.KindCorrupt, "conindex: bad magic %q", magic)
	}
	var buf [16]byte
	if _, err := io.ReadFull(tee, buf[:2]); err != nil {
		return nil, fmt.Errorf("conindex: read version: %w", err)
	}
	ver := binary.LittleEndian.Uint16(buf[:2])
	if ver < conVersionMin || ver > conVersion {
		return nil, fmt.Errorf("conindex: unsupported version %d", ver)
	}
	if _, err := io.ReadFull(tee, buf[:4]); err != nil {
		return nil, fmt.Errorf("conindex: read slot seconds: %w", err)
	}
	slotSec := int(binary.LittleEndian.Uint32(buf[:4]))
	if slotSec <= 0 || 86400%slotSec != 0 {
		return nil, fmt.Errorf("conindex: invalid slot seconds %d", slotSec)
	}
	if _, err := io.ReadFull(tee, buf[:4]); err != nil {
		return nil, fmt.Errorf("conindex: read segment count: %w", err)
	}
	numSeg := int(binary.LittleEndian.Uint32(buf[:4]))
	if numSeg != net.NumSegments() {
		return nil, fmt.Errorf("conindex: saved over %d segments, network has %d", numSeg, net.NumSegments())
	}
	if numSeg > maxRowSegments {
		return nil, fmt.Errorf("conindex: network too large (%d segments, max %d)", numSeg, maxRowSegments)
	}
	numSlots := 86400 / slotSec
	total := numSlots * numSeg
	idx := &Index{
		net:      net,
		slotSec:  slotSec,
		numSlots: numSlots,
		// The floor/fallback/safety knobs are not serialized; reopened
		// indexes use the defaults, which is what every build path in
		// this repo configures. They only matter for live ObserveSpeed.
		cfg:      Config{SlotSeconds: slotSec}.withDefaults(),
		minSpeed: make([]uint32, total),
		maxSpeed: make([]uint32, total),
		sumSpeed: make([]uint32, total),
		cntSpeed: make([]uint32, total),
		slotGen:  make([]atomic.Uint64, numSlots),
		near:     newTable(numSlots, numSeg),
		far:      newTable(numSlots, numSeg),
		nearRev:  newTable(numSlots, numSeg),
		farRev:   newTable(numSlots, numSeg),
	}
	for i := 0; i < total; i++ {
		if _, err := io.ReadFull(tee, buf[:16]); err != nil {
			return nil, fmt.Errorf("conindex: read stats %d: %w", i, err)
		}
		idx.minSpeed[i] = binary.LittleEndian.Uint32(buf[0:4])
		idx.maxSpeed[i] = binary.LittleEndian.Uint32(buf[4:8])
		idx.sumSpeed[i] = binary.LittleEndian.Uint32(buf[8:12])
		idx.cntSpeed[i] = binary.LittleEndian.Uint32(buf[12:16])
	}
	if ver >= 2 {
		// The stored checksum is read from br directly: it is not part
		// of its own coverage.
		want := h.Sum32()
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("conindex: read checksum: %w", err)
		}
		if got := binary.LittleEndian.Uint32(buf[:4]); got != want {
			return nil, xerr.Markf(xerr.KindCorrupt, "conindex: checksum mismatch (stored %08x, computed %08x)", got, want)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, xerr.Markf(xerr.KindCorrupt, "conindex: trailing bytes after v%d blob", ver)
	}
	return idx, nil
}
