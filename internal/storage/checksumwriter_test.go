package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// TestChecksumWriterMatchesWholeFile writes record runs that straddle
// the chunk boundary in every way and checks the output is the bytes
// written followed by their CRC-32C — what a bufio.Writer teed into a
// hash writes.
func TestChecksumWriterMatchesWholeFile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, total := range []int{0, 1, 16, checksumChunk - 1, checksumChunk, checksumChunk + 1, 3*checksumChunk + 17} {
		var want []byte
		var out bytes.Buffer
		cw := NewChecksumWriter(&out)
		for len(want) < total {
			n := min(1+rng.Intn(checksumChunk/3), total-len(want))
			if rng.Intn(4) == 0 {
				n = min(16, total-len(want))
			}
			p := make([]byte, n)
			rng.Read(p)
			if k, err := cw.Write(p); err != nil || k != n {
				t.Fatalf("total %d: Write = %d, %v", total, k, err)
			}
			want = append(want, p...)
		}
		if err := cw.Finish(); err != nil {
			t.Fatal(err)
		}
		want = binary.LittleEndian.AppendUint32(want, Checksum(want))
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("total %d: output differs from the bytes plus their checksum", total)
		}
	}
}

type failAfter struct{ n int }

var errDisk = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errDisk
	}
	f.n--
	return len(p), nil
}

// TestChecksumWriterStickyError: once the destination fails, every
// later Write and Finish reports that failure.
func TestChecksumWriterStickyError(t *testing.T) {
	cw := NewChecksumWriter(&failAfter{n: 1})
	big := make([]byte, 2*checksumChunk+5)
	if _, err := cw.Write(big); !errors.Is(err, errDisk) {
		t.Fatalf("Write over a failing destination = %v, want %v", err, errDisk)
	}
	if _, err := cw.Write([]byte{1}); !errors.Is(err, errDisk) {
		t.Fatalf("Write after a failure = %v", err)
	}
	if err := cw.Finish(); !errors.Is(err, errDisk) {
		t.Fatalf("Finish after a failure = %v", err)
	}
	if err := NewChecksumWriter(&failAfter{}).Finish(); !errors.Is(err, errDisk) {
		t.Fatalf("Finish over a failing destination = %v", err)
	}
}
