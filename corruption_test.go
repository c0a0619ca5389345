package streach

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCorruptionFuzzReopen pins the checksummed-persistence acceptance
// criterion: a single flipped bit anywhere in a persisted index file is
// detected on reopen and repaired by a cold rebuild — the open never
// panics, never fails, and the reopened system answers bit-identically
// to the uncorrupted one. A conindex.adj left by an earlier build (here
// testdata/preframe's) is never read, flipped bit or not: the open logs
// nothing. The network and the trajectories have no rebuild
// path: a flipped bit there fails the open as CorruptData, or the system
// reopens and answers bit-identically — it never answers wrongly.
func TestCorruptionFuzzReopen(t *testing.T) {
	s := smallSystem(t)
	reqs := requestMatrix(s, 11*time.Hour).smoke
	src := t.TempDir()
	if err := s.Save(src); err != nil {
		t.Fatal(err)
	}
	leftover, err := os.ReadFile(filepath.Join("testdata", "preframe", fileConAdj))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, fileConAdj), leftover, 0o644); err != nil {
		t.Fatal(err)
	}

	const trials = 4
	rng := rand.New(rand.NewSource(99))
	for _, name := range []string{fileSTMeta, filePages, fileConIndex, fileConAdj, fileNetwork, fileDataset} {
		t.Run(name, func(t *testing.T) {
			logBuf := captureLog(t)
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

				logBuf.Reset()
				if name == fileNetwork || name == fileDataset {
					sys, err := OpenSystem(dir, DefaultIndexConfig())
					if err != nil {
						if CodeOf(err) != CorruptData {
							t.Fatalf("bit %d: open failed with %v, code %v, want CorruptData", bit, err, CodeOf(err))
						}
						continue
					}
					checkOracle(t, reference(t), serial(sys), reqs)
					sys.Close()
					continue
				}
				sys := variant(t, vcfg{planCache: -1, dir: dir})
				if name == fileConAdj {
					if logBuf.Len() != 0 {
						t.Fatalf("bit %d: a leftover %s was read:\n%s", bit, name, logBuf.String())
					}
				} else if !strings.Contains(logBuf.String(), "cold rebuild") {
					t.Fatalf("bit %d: corruption in %s went undetected (no cold rebuild logged):\n%s",
						bit, name, logBuf.String())
				}
				checkOracle(t, reference(t), serial(sys), reqs)
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

	logBuf := captureLog(t)
	variant(t, vcfg{planCache: -1, dir: dir}).Close()
	if !strings.Contains(logBuf.String(), "cold rebuild") {
		t.Fatalf("corrupted meta not rebuilt:\n%s", logBuf.String())
	}
	logBuf.Reset()
	variant(t, vcfg{planCache: -1, dir: dir})
	if strings.Contains(logBuf.String(), "cold rebuild") {
		t.Fatalf("second open still rebuilds — repair was not persisted:\n%s", logBuf.String())
	}
}
