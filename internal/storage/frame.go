package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"slices"

	"streach/internal/xerr"
)

// The frame of every file a saved system holds apart from the page store
// and the WAL — the road network, the trajectories, the ST-Index meta
// and the Con-Index statistics (DESIGN.md §11.3).
// Little endian:
//
//	magic [4]byte | version u16
//	chunk:  length u32 (1..64 KiB) | length bytes of payload | crc u32
//	...
//	end:    length u32 = 0                                   | crc u32
//
// Each crc is the CRC-32C of every byte before it, the earlier crcs
// left out: a chunk's crc vouches for its own length and payload and,
// through the chain, for the header and every chunk before it, and the
// end marker's for the whole file. The payload is the format's records,
// written back to back with no regard for chunk boundaries.
//
// A reader hands out no byte of a chunk before that chunk's crc has
// verified, and a file is valid only when it ends exactly after the end
// marker.

// frameChunk is the largest chunk payload.
const frameChunk = 64 << 10

// frameHeader is the size of the magic and the version.
const frameHeader = 6

// ChecksumWriter writes one frame. It buffers records into a chunk and
// writes a full chunk with its crc in one call, so a file written one
// small record at a time costs one hash update and one write per 64 KiB.
// Finish writes the last chunk and the end marker.
//
// Errors are sticky: after a failed write every later call does nothing
// and Finish returns the error. The typed record writers (Uint8 …
// Uint64) report only through Finish.
type ChecksumWriter struct {
	w io.Writer
	// buf is the output not yet written: the header until the first
	// chunk goes out, the chunk's length slot, and its payload so far,
	// which starts at pay.
	buf []byte
	pay int
	crc uint32
	err error
}

// NewChecksumWriter returns a writer of a frame with the given magic (4
// bytes) and version to w.
func NewChecksumWriter(w io.Writer, magic string, version uint16) *ChecksumWriter {
	buf := make([]byte, 0, frameHeader+4+frameChunk+4)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = append(buf, 0, 0, 0, 0)
	return &ChecksumWriter{w: w, buf: buf, pay: len(buf)}
}

// Write buffers p as payload, writing out every chunk it fills.
func (c *ChecksumWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n := len(p)
	for len(c.buf)-c.pay+len(p) > frameChunk {
		k := frameChunk - (len(c.buf) - c.pay)
		c.buf = append(c.buf, p[:k]...)
		p = p[k:]
		if err := c.flush(); err != nil {
			return n - len(p), err
		}
	}
	c.buf = append(c.buf, p...)
	return n, nil
}

// Uint8 writes one byte of payload.
func (c *ChecksumWriter) Uint8(v uint8) { c.Write([]byte{v}) }

// Uint16 writes v as two bytes of payload.
func (c *ChecksumWriter) Uint16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	c.Write(b[:])
}

// Uint32 writes v as four bytes of payload.
func (c *ChecksumWriter) Uint32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.Write(b[:])
}

// Uint64 writes v as eight bytes of payload.
func (c *ChecksumWriter) Uint64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.Write(b[:])
}

// flush seals the buffered chunk with its length and crc and writes it
// out, with the header if it has not gone out yet.
func (c *ChecksumWriter) flush() error {
	binary.LittleEndian.PutUint32(c.buf[c.pay-4:c.pay], uint32(len(c.buf)-c.pay))
	c.crc = crc32.Update(c.crc, castagnoliTable, c.buf)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, c.crc)
	if _, err := c.w.Write(c.buf); err != nil {
		c.err = err
		return err
	}
	c.buf, c.pay = c.buf[:4], 4
	return nil
}

// Finish writes the buffered payload as the last chunk, then the end
// marker: an empty chunk.
func (c *ChecksumWriter) Finish() error {
	if c.err != nil {
		return c.err
	}
	if len(c.buf) > c.pay {
		if err := c.flush(); err != nil {
			return err
		}
	}
	return c.flush()
}

// ChecksumReader reads one frame's payload as records. Errors are
// sticky: after the first failure every read returns zero values and
// Err reports it; every failure of the frame itself — truncation at any
// offset, a checksum mismatch, a bad magic or version, bytes after the
// end marker — is marked xerr.KindCorrupt. A loader reads its records,
// then calls Finish, which fails unless the payload ends exactly there.
type ChecksumReader struct {
	r       *bufio.Reader
	magic   string
	version uint16
	// size is the input's length when it can tell it, else -1; off is
	// how much of it has been read.
	size, off int64
	// chunk is the verified payload not yet handed out, in buf; span
	// reassembles a record that straddles two chunks.
	chunk, buf, span []byte
	crc              uint32
	end              bool // the end marker has been read
	err              error
}

// NewChecksumReader reads the header of a frame from r and checks its
// magic and that its version is version or one of the older layouts a
// loader still reads; Version reports which.
func NewChecksumReader(r io.Reader, magic string, version uint16, older ...uint16) (*ChecksumReader, error) {
	c := &ChecksumReader{r: bufio.NewReader(r), magic: magic, size: inputSize(r)}
	var hdr [frameHeader]byte
	if !c.read(hdr[:]) {
		return nil, c.err
	}
	if string(hdr[:4]) != magic {
		return nil, xerr.Markf(xerr.KindCorrupt, "storage: bad magic %q, want %q", hdr[:4], magic)
	}
	c.version = binary.LittleEndian.Uint16(hdr[4:])
	if c.version != version && !slices.Contains(older, c.version) {
		return nil, xerr.Markf(xerr.KindCorrupt, "storage: %s version %d, want %d", magic, c.version, version)
	}
	c.crc = crc32.Update(0, castagnoliTable, hdr[:])
	return c, nil
}

// Version is the frame's layout version.
func (c *ChecksumReader) Version() uint16 { return c.version }

// inputSize is r's length when r is a regular file, else -1.
func inputSize(r io.Reader) int64 {
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

// Rewound returns r as it was before head, its first bytes, were read
// from it: a reader of head and then of the rest of r. A loader that
// reads a file's first bytes to choose between a framed and an older
// unframed layout hands the rewound input to NewChecksumReader, which
// still learns a file's length from r's Stat for Remaining.
func Rewound(head []byte, r io.Reader) io.Reader {
	return &rewound{Reader: io.MultiReader(bytes.NewReader(head), r), src: r}
}

type rewound struct {
	io.Reader
	src io.Reader
}

func (r *rewound) Stat() (fs.FileInfo, error) {
	if f, ok := r.src.(interface{ Stat() (fs.FileInfo, error) }); ok {
		return f.Stat()
	}
	return nil, errors.ErrUnsupported
}

// corrupt records a frame failure.
func (c *ChecksumReader) corrupt(format string, args ...any) {
	c.err = xerr.Markf(xerr.KindCorrupt, "storage: %s frame: "+format, append([]any{c.magic}, args...)...)
}

// read fills p from the input.
func (c *ChecksumReader) read(p []byte) bool {
	n, err := io.ReadFull(c.r, p)
	c.off += int64(n)
	switch {
	case err == nil:
		return true
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		c.corrupt("truncated at byte %d", c.off)
	default:
		c.err = fmt.Errorf("storage: read %s frame: %w", c.magic, err)
	}
	return false
}

// nextChunk reads and verifies the next chunk into c.chunk.
func (c *ChecksumReader) nextChunk() bool {
	at := c.off
	var hdr [4]byte
	if !c.read(hdr[:]) {
		return false
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > frameChunk {
		c.corrupt("chunk at byte %d claims %d bytes, over the %d-byte limit", at, n, frameChunk)
		return false
	}
	if cap(c.buf) < n+4 {
		c.buf = make([]byte, n+4)
	}
	body := c.buf[:n+4]
	if !c.read(body) {
		return false
	}
	c.crc = crc32.Update(c.crc, castagnoliTable, hdr[:])
	c.crc = crc32.Update(c.crc, castagnoliTable, body[:n])
	if got := binary.LittleEndian.Uint32(body[n:]); got != c.crc {
		c.corrupt("checksum mismatch in the chunk at byte %d (stored %08x, computed %08x)", at, got, c.crc)
		return false
	}
	c.chunk, c.end = body[:n], n == 0
	return true
}

// Next returns the next n bytes of payload, or nil once reading has
// failed. The bytes are valid until the next read.
func (c *ChecksumReader) Next(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n <= len(c.chunk) {
		b := c.chunk[:n:n]
		c.chunk = c.chunk[n:]
		return b
	}
	c.span = append(c.span[:0], c.chunk...)
	c.chunk = nil
	for len(c.span) < n {
		if c.end {
			c.corrupt("payload ends inside a record")
			return nil
		}
		if !c.nextChunk() {
			return nil
		}
		k := min(n-len(c.span), len(c.chunk))
		c.span = append(c.span, c.chunk[:k]...)
		c.chunk = c.chunk[k:]
	}
	return c.span
}

// Uint8 reads one byte of payload.
func (c *ChecksumReader) Uint8() uint8 {
	if b := c.Next(1); b != nil {
		return b[0]
	}
	return 0
}

// Uint16 reads two bytes of payload.
func (c *ChecksumReader) Uint16() uint16 {
	if b := c.Next(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// Uint32 reads four bytes of payload.
func (c *ChecksumReader) Uint32() uint32 {
	if b := c.Next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Uint64 reads eight bytes of payload.
func (c *ChecksumReader) Uint64() uint64 {
	if b := c.Next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uvarint reads a uvarint of at most limit (below 2^63) in its shortest
// form. Any other encoding fails the reader as corrupt, so a format
// built from these has one encoding of each value.
func (c *ChecksumReader) Uvarint(limit uint64) uint64 {
	var buf [binary.MaxVarintLen64]byte
	for n := 0; n < len(buf); n++ {
		b := c.Next(1)
		if b == nil {
			return 0
		}
		if buf[n] = b[0]; b[0] < 0x80 {
			if x, end := UvarintAt(buf[:n+1], 0, limit); end > 0 {
				return x
			}
			break
		}
	}
	c.corrupt("malformed varint")
	return 0
}

// UvarintAt decodes the shortest-form uvarint at b[i:] when it is at
// most limit (below 2^63), returning it and the offset after it; the
// offset is -1 for anything else.
func UvarintAt(b []byte, i int, limit uint64) (uint64, int) {
	var x uint64
	for s := uint(0); s < 63 && i < len(b); s += 7 {
		c := b[i]
		i++
		x |= uint64(c&0x7f) << s
		if c < 0x80 {
			if (c == 0 && s > 0) || x > limit {
				return 0, -1
			}
			return x, i
		}
	}
	return 0, -1
}

// Err reports the first failure.
func (c *ChecksumReader) Err() error { return c.err }

// Remaining bounds the payload bytes still to come: the input's length
// less what has been read, plus what is verified and not yet handed
// out. Unlike a count in a header it is evidence of what the file can
// hold, so loaders size their arrays from it. An input that cannot tell
// its length bounds nothing; then only the verified bytes in hand count,
// and a loader's arrays grow as records arrive.
func (c *ChecksumReader) Remaining() int64 {
	if c.size < 0 {
		return int64(len(c.chunk))
	}
	return max(0, c.size-c.off) + int64(len(c.chunk))
}

// Finish checks that the payload ends where the loader stopped reading:
// the end marker follows, and nothing after it.
func (c *ChecksumReader) Finish() error {
	if c.err == nil && len(c.chunk) > 0 {
		c.corrupt("%d bytes of payload past the last record", len(c.chunk))
	}
	if c.err == nil && !c.end && c.nextChunk() && !c.end {
		c.corrupt("payload continues past the last record")
	}
	if c.err == nil {
		switch _, err := c.r.ReadByte(); {
		case err == nil:
			c.corrupt("bytes after the end marker at byte %d", c.off)
		case err != io.EOF:
			c.err = fmt.Errorf("storage: read %s frame: %w", c.magic, err)
		}
	}
	return c.err
}
