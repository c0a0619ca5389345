// Package ingest turns the read-only streach indexes into a live
// system: a batching, worker-pooled Writer applies streaming position
// updates to the ST-Index delta layer and the Con-Index speed
// statistics, an append-only write-ahead log makes accepted updates
// crash-durable between compactions, and a background trigger folds the
// delta layer into the persisted blobs (a new index epoch) off the hot
// path. See DESIGN.md §13.
package ingest

import (
	"encoding/binary"
	"math"

	"streach/internal/roadnet"
	"streach/internal/traj"
)

// Update is one accepted position report, resolved to a road segment:
// taxi traversed seg on day between EnterMs and ExitMs (milliseconds
// since the day's midnight) at the given speed.
type Update struct {
	Taxi    traj.TaxiID
	Day     traj.Day
	Seg     roadnet.SegmentID
	EnterMs int32
	ExitMs  int32
	Speed   float32
}

// recordSize is the encoded size of one Update:
//
//	seg u32 | day u16 | taxi u16 | enterMs u32 | exitMs u32 | speed f32
//
// little endian.
const recordSize = 20

// encodeUpdateRecords serialises a batch as bare 20-byte records, the
// payload of the segmented WAL's kind-0 frames.
func encodeUpdateRecords(batch []Update) []byte {
	buf := make([]byte, recordSize*len(batch))
	off := 0
	for _, u := range batch {
		binary.LittleEndian.PutUint32(buf[off:], uint32(u.Seg))
		binary.LittleEndian.PutUint16(buf[off+4:], uint16(u.Day))
		binary.LittleEndian.PutUint16(buf[off+6:], uint16(u.Taxi))
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(u.EnterMs))
		binary.LittleEndian.PutUint32(buf[off+12:], uint32(u.ExitMs))
		binary.LittleEndian.PutUint32(buf[off+16:], math.Float32bits(u.Speed))
		off += recordSize
	}
	return buf
}

// decodeUpdateRecords is encodeUpdateRecords' inverse over a validated
// payload of n records.
func decodeUpdateRecords(payload []byte, n int) []Update {
	batch := make([]Update, n)
	off := 0
	for i := range batch {
		batch[i] = Update{
			Seg:     roadnet.SegmentID(binary.LittleEndian.Uint32(payload[off:])),
			Day:     traj.Day(binary.LittleEndian.Uint16(payload[off+4:])),
			Taxi:    traj.TaxiID(binary.LittleEndian.Uint16(payload[off+6:])),
			EnterMs: int32(binary.LittleEndian.Uint32(payload[off+8:])),
			ExitMs:  int32(binary.LittleEndian.Uint32(payload[off+12:])),
			Speed:   math.Float32frombits(binary.LittleEndian.Uint32(payload[off+16:])),
		}
		off += recordSize
	}
	return batch
}
