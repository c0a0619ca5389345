package storage

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

// checksumChunk is how much a ChecksumWriter buffers before it hashes
// and writes.
const checksumChunk = 64 << 10

// ChecksumWriter is the writer of every persisted file that ends in a
// CRC-32C of its own bytes. It buffers writes in 64 KiB chunks and
// folds each chunk into the running checksum as it goes out, so a file
// written one 12–16-byte record at a time costs one hash update and one
// write per chunk rather than two per record (a bufio.Writer and a hash
// behind an io.MultiWriter). Finish appends the checksum.
//
// Errors are sticky: after a failed write every later Write and Finish
// returns the same error.
type ChecksumWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
	err error
}

// NewChecksumWriter returns a ChecksumWriter writing to w.
func NewChecksumWriter(w io.Writer) *ChecksumWriter {
	return &ChecksumWriter{w: w, buf: make([]byte, 0, checksumChunk)}
}

// Write buffers p; it writes out and hashes every full chunk.
func (c *ChecksumWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n := len(p)
	for len(c.buf)+len(p) > checksumChunk {
		k := checksumChunk - len(c.buf)
		c.buf = append(c.buf, p[:k]...)
		p = p[k:]
		if err := c.flush(); err != nil {
			return n - len(p), err
		}
	}
	c.buf = append(c.buf, p...)
	return n, nil
}

// flush hashes and writes the buffered bytes.
func (c *ChecksumWriter) flush() error {
	c.crc = crc32.Update(c.crc, castagnoliTable, c.buf)
	if _, err := c.w.Write(c.buf); err != nil {
		c.err = err
		return err
	}
	c.buf = c.buf[:0]
	return nil
}

// Finish writes out what is buffered, then the CRC-32C of every byte
// written so far, little endian (the checksum does not cover itself).
func (c *ChecksumWriter) Finish() error {
	if c.err != nil {
		return c.err
	}
	c.crc = crc32.Update(c.crc, castagnoliTable, c.buf)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, c.crc)
	if _, err := c.w.Write(c.buf); err != nil {
		c.err = err
		return err
	}
	c.buf = c.buf[:0]
	return nil
}
