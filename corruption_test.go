package streach

import (
	"bytes"
	"context"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCorruptionFuzzReopen pins the checksummed-persistence acceptance
// criterion: a single flipped bit anywhere in a persisted index file is
// detected on reopen and repaired by a cold rebuild (or, for the
// adjacency warm cache, by dropping the blob) — the open never panics,
// never fails, and the reopened system answers bit-identically to the
// uncorrupted one.
func TestCorruptionFuzzReopen(t *testing.T) {
	s := smallSystem(t)
	want, err := s.Do(context.Background(), testQuery(s))
	if err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	if err := s.Save(src); err != nil {
		t.Fatal(err)
	}

	const trials = 4
	rng := rand.New(rand.NewSource(99))
	for _, name := range []string{fileSTMeta, filePages, fileConIndex, fileConAdj} {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				dir := t.TempDir()
				copyDir(t, src, dir)
				path := filepath.Join(dir, name)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				bit := rng.Intn(len(data) * 8)
				data[bit/8] ^= 1 << (bit % 8)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}

				var logBuf bytes.Buffer
				log.SetOutput(&logBuf)
				idx := DefaultIndexConfig()
				idx.PlanCache = -1
				sys, err := OpenSystem(dir, idx)
				log.SetOutput(os.Stderr)
				if err != nil {
					t.Fatalf("bit %d: reopen failed instead of repairing: %v", bit, err)
				}
				if name == fileConAdj {
					// The warm cache is dropped, not rebuilt.
					if strings.Contains(logBuf.String(), "cold rebuild") {
						t.Fatalf("bit %d: adjacency flip triggered an index rebuild:\n%s", bit, logBuf.String())
					}
					if !strings.Contains(logBuf.String(), "re-materialise lazily") {
						t.Fatalf("bit %d: adjacency corruption went undetected", bit)
					}
				} else if !strings.Contains(logBuf.String(), "cold rebuild") {
					t.Fatalf("bit %d: corruption in %s went undetected (no cold rebuild logged):\n%s",
						bit, name, logBuf.String())
				}
				got, err := sys.Do(context.Background(), testQuery(sys))
				if err != nil {
					t.Fatalf("bit %d: query on repaired system: %v", bit, err)
				}
				if !reflect.DeepEqual(got.SegmentIDs, want.SegmentIDs) ||
					!reflect.DeepEqual(got.Probabilities, want.Probabilities) {
					t.Fatalf("bit %d in %s: repaired system answers differently (%d segments, want %d)",
						bit, name, len(got.SegmentIDs), len(want.SegmentIDs))
				}
			}
		})
	}
}

// TestCorruptionRepairIsDurable: after a cold rebuild the repaired files
// are re-saved, so the next open of the same dir is warm (no rebuild).
func TestCorruptionRepairIsDurable(t *testing.T) {
	s := smallSystem(t)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileSTMeta)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	idx := DefaultIndexConfig()
	idx.PlanCache = -1

	var logBuf bytes.Buffer
	log.SetOutput(&logBuf)
	_, err = OpenSystem(dir, idx)
	log.SetOutput(os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logBuf.String(), "cold rebuild") {
		t.Fatalf("corrupted meta not rebuilt:\n%s", logBuf.String())
	}

	logBuf.Reset()
	log.SetOutput(&logBuf)
	_, err = OpenSystem(dir, idx)
	log.SetOutput(os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(logBuf.String(), "cold rebuild") {
		t.Fatalf("second open still rebuilds — repair was not persisted:\n%s", logBuf.String())
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
