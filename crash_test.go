package streach

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"streach/internal/storage"
)

// The crash-point recovery matrix (DESIGN.md §14). Every durability
// boundary one flush-then-compact cycle crosses — WAL seal, carry
// segment create/append/sync, segment retire, page flush and sync, and
// each index file's atomic write/rename/dirsync — is recorded by a
// discovery pass, then hit with a simulated power cut (a panicking
// crash hook) in its own trial on a fresh copy of the directory. After
// every crash the reopened system must answer bit-identically to the
// uncrashed run: the on-disk state is always "some prefix of the cycle
// plus a WAL that replays the rest", never a torn hybrid.

// crashExtraUpdates is the deterministic second wave each trial ingests
// live, so the WAL has an active segment for the compaction to seal.
func crashExtraUpdates(s *System) []IngestUpdate {
	n := s.Network().NumSegments()
	days := s.Dataset().Days
	var out []IngestUpdate
	for i := 0; i < 80; i++ {
		enterMs := int32((10*3600 + 300*(i%12)) * 1000)
		out = append(out, IngestUpdate{
			TaxiID:    int32(2000 + i%10),
			Day:       i % days,
			SegmentID: int32((i * 5) % n),
			EnterMs:   enterMs,
			ExitMs:    enterMs + 30_000,
			SpeedMps:  float32(5 + i%7),
		})
	}
	return out
}

func TestCrashPointRecoveryMatrix(t *testing.T) {
	base := smallSystem(t)
	tmpl := t.TempDir()
	if err := base.Save(tmpl); err != nil {
		t.Fatal(err)
	}
	idx := DefaultIndexConfig()
	ctx := context.Background()

	// Template: a saved system whose WAL holds an acknowledged first wave
	// of updates (closed without compacting, as a crash would leave it).
	sys, err := OpenSystem(tmpl, idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StartIngest(IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(ctx, liveFixtureUpdates(sys)); err != nil {
		t.Fatal(err)
	}
	if err := sys.FlushIngest(ctx); err != nil {
		t.Fatal(err)
	}
	reqs := requestMatrix(sys, 10*time.Hour).smoke
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if len(walSegmentFiles(t, tmpl)) == 0 {
		t.Fatal("template has no wal segments")
	}

	// budget is far below the first wave's dirty-key count, so every
	// compaction in the matrix rolls keys forward and writes carry
	// records — the retire-after-carry ordering is on every trial's path.
	const budget = 8

	// runCycle opens a copy of the template, ingests the second wave
	// (hook disarmed: live appends run on writer goroutines, where a
	// panicking hook would kill the process rather than simulate a
	// power cut), arms the hook, and runs one budgeted compaction on the
	// caller goroutine — the only place the armed boundaries execute.
	runCycle := func(t *testing.T, dir string, hook func(string)) (s *System, res CompactResult, compactErr error) {
		t.Helper()
		s, err := OpenSystem(dir, idx)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := s.StartIngest(IngestConfig{}); err != nil {
			t.Fatalf("start ingest: %v", err)
		}
		if err := s.Ingest(ctx, crashExtraUpdates(s)); err != nil {
			t.Fatalf("ingest second wave: %v", err)
		}
		if err := s.FlushIngest(ctx); err != nil {
			t.Fatalf("flush second wave: %v", err)
		}
		if hook != nil {
			storage.SetCrashHook(hook)
			defer storage.SetCrashHook(nil)
		}
		res, compactErr = s.CompactIngestN(ctx, budget)
		return s, res, compactErr
	}

	// Discovery pass: record every boundary the cycle crosses, and the
	// uncrashed answer every trial must reproduce.
	var mu sync.Mutex
	var points []string
	seen := make(map[string]bool)
	recDir := t.TempDir()
	copyDir(t, tmpl, recDir)
	rec, res, err := runCycle(t, recDir, func(name string) {
		mu.Lock()
		if !seen[name] {
			seen[name] = true
			points = append(points, name)
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("discovery compaction: %v", err)
	}
	if res.Remaining == 0 {
		t.Fatalf("budget %d did not bind (%+v); the matrix would skip the carry path", budget, res)
	}
	if res.CarriedObs == 0 {
		t.Fatal("budgeted compaction carried no rolled-over observations")
	}
	want := replay(serial(rec), reqs)
	rec.Close()
	for _, must := range []string{
		"wal.seal", "wal.create", "wal.append", "wal.sync", "wal.retire",
		"persist.pages.flush", "pages.sync",
		"persist." + fileSTMeta + ".write", "persist." + fileSTMeta + ".rename", "persist." + fileSTMeta + ".dirsync",
		"persist." + fileConIndex + ".rename",
	} {
		if !seen[must] {
			t.Fatalf("discovery pass missed boundary %s (saw %v)", must, points)
		}
	}

	for _, point := range points {
		point := point
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, tmpl, dir)
			crashed := false
			func() {
				defer func() {
					if recover() != nil {
						crashed = true
					}
				}()
				_, _, err := runCycle(t, dir, func(name string) {
					if name == point {
						panic("power cut at " + name)
					}
				})
				if err != nil {
					t.Errorf("compaction failed without crashing: %v", err)
				}
			}()
			if !crashed {
				t.Fatalf("crash point %s never fired", point)
			}
			// The crashed System is abandoned, as a real power cut would
			// abandon the process; a fresh open must recover.
			re := variant(t, vcfg{planCache: -1, dir: dir})
			checkOracle(t, want, serial(re), reqs)

			// Recovery converges: a full durable compaction from the
			// crashed state drains the WAL and still answers identically
			// after a cold reopen.
			if err := re.StartIngest(IngestConfig{}); err != nil {
				t.Fatal(err)
			}
			fres, err := re.CompactIngestN(ctx, 0)
			if err != nil {
				t.Fatalf("full compaction after crash at %s: %v", point, err)
			}
			if !fres.Durable || fres.Remaining != 0 {
				t.Fatalf("post-crash compaction not durable/complete: %+v", fres)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			if left := walSegmentFiles(t, dir); len(left) != 0 {
				t.Fatalf("wal segments survived a full durable compaction after crash at %s: %v", point, left)
			}
			checkOracle(t, want, serial(variant(t, vcfg{planCache: -1, dir: dir})), reqs)
		})
	}
}

// TestCrashPointResaveMatrix: Save into the directory a system was
// opened from crosses every persist.* boundary of the shared write path
// — network, meta, statistics, each installed atomically — and a power
// cut at any one of them leaves a directory that reopens without a
// rebuild and answers identically.
func TestCrashPointResaveMatrix(t *testing.T) {
	tmpl := t.TempDir()
	if err := smallSystem(t).Save(tmpl); err != nil {
		t.Fatal(err)
	}
	reqs := requestMatrix(smallSystem(t), 10*time.Hour).smoke
	resave := func(t *testing.T, dir string, hook func(string)) {
		t.Helper()
		s, err := OpenSystem(dir, DefaultIndexConfig())
		if err != nil {
			t.Fatal(err)
		}
		storage.SetCrashHook(hook)
		defer storage.SetCrashHook(nil)
		if err := s.Save(dir); err != nil {
			t.Errorf("re-save: %v", err)
		}
		s.Close()
	}

	var points []string
	seen := map[string]bool{}
	discover := t.TempDir()
	copyDir(t, tmpl, discover)
	resave(t, discover, func(name string) {
		if strings.HasPrefix(name, "persist.") && !seen[name] {
			seen[name] = true
			points = append(points, name)
		}
	})
	for _, f := range []string{fileNetwork, fileSTMeta, fileConIndex} {
		for _, step := range []string{"write", "rename", "dirsync"} {
			if !seen["persist."+f+"."+step] {
				t.Fatalf("a re-save missed persist.%s.%s (saw %v)", f, step, points)
			}
		}
	}

	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, tmpl, dir)
			crashed := false
			func() {
				defer func() { crashed = recover() != nil }()
				// The crashed System is abandoned, as a power cut would
				// abandon the process.
				s, err := OpenSystem(dir, DefaultIndexConfig())
				if err != nil {
					t.Fatal(err)
				}
				storage.SetCrashHook(func(name string) {
					if name == point {
						panic("power cut at " + name)
					}
				})
				defer storage.SetCrashHook(nil)
				s.Save(dir)
			}()
			if !crashed {
				t.Fatalf("crash point %s never fired", point)
			}
			logBuf := captureLog(t)
			re := variant(t, vcfg{planCache: -1, dir: dir})
			if strings.Contains(logBuf.String(), "unreadable") {
				t.Fatalf("reopen after a crash at %s repaired something:\n%s", point, logBuf.String())
			}
			checkOracle(t, reference(t), serial(re), reqs)
		})
	}
}
