package storage

import (
	"hash"
	"hash/crc32"
)

// Checksums for persisted data. Every checksummed on-disk format shares one
// polynomial (Castagnoli, hardware-accelerated on amd64/arm64) — the
// frame of the derived files (frame.go), the WAL segments, and the
// ST-Index meta's checksum of the page store's contents.
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// NewChecksum returns a running CRC-32C hash.
func NewChecksum() hash.Hash32 { return crc32.New(castagnoliTable) }
