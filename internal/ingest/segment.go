package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/storage"
	"streach/internal/traj"
	"streach/internal/xerr"
)

// Segmented write-ahead log (DESIGN.md §14).
//
// The single-file WAL of the first live-ingest cut had two scale
// problems: replay on open was serial in total write volume, and the
// only way to reclaim space was a whole-file truncate gated on a full
// compaction — a compaction stall grew the log without bound. The
// segmented log replaces it: appends route to per-shard active
// segments (parallel fsyncs, parallel replay), segments rotate by size
// and age, and a durable compaction retires exactly the segments it
// covered while newer ones live on.
//
// Layout: dir/seg-<epoch>-<seq>.log, seq globally monotonic (the
// retirement cursor), epoch informational. Segment format (little
// endian):
//
//	header: magic "IDSG" | version u16 | shard u16 | seq u64 | epoch u64
//	frame:  kind u8 | count u32 | count x record | crc u32
//
// kind 0 frames hold 20-byte Update records (see wal.go),
// kind 1 frames hold 12-byte DeltaObs records — the "carry" a durable
// budgeted compaction writes for delta entries it rolled over, so
// retiring their original segments never sheds acknowledged data. The
// CRC-32C covers kind, count, and the records.
//
// Failure discipline: an append retries with doubling backoff, sealing
// the possibly-torn active segment before each retry so the fresh
// attempt starts a clean file (a torn frame mid-segment would end that
// segment's replay and silently drop every frame behind it). When the
// retries are exhausted the log flips to an explicit degraded state —
// updates stay live in memory, durability is honestly reported lost —
// and the next successful append clears it.
const (
	segMagic      = "IDSG"
	segVersion    = 1
	segHeaderSize = 4 + 2 + 2 + 8 + 8

	frameUpdates = 0
	frameObs     = 1

	obsRecordSize = 12
)

// SegmentedConfig controls a SegmentedLog. The zero value is usable.
type SegmentedConfig struct {
	// SegmentBytes rotates an active segment once it grows past this
	// (default 4 MiB).
	SegmentBytes int64
	// SegmentAge rotates an active segment older than this (default 1m):
	// age-bounded segments keep the retirement granularity fine even at
	// low write rates.
	SegmentAge time.Duration
	// Shards is the number of independent append streams (default 1).
	Shards int
	// Retries is how many times an append retries after the first
	// failure (default 3).
	Retries int
	// Backoff is the first retry's sleep; it doubles per attempt
	// (default 2ms).
	Backoff time.Duration
	// Epoch stamps new segment names (informational; see SetEpoch).
	Epoch uint64
}

func (c SegmentedConfig) withDefaults() SegmentedConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.SegmentAge <= 0 {
		c.SegmentAge = time.Minute
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 2 * time.Millisecond
	}
	return c
}

// sealedSegment is a closed segment awaiting retirement.
type sealedSegment struct {
	seq  uint64
	path string
}

// activeSegment is one shard's open append stream.
type activeSegment struct {
	mu    sync.Mutex
	shard int
	f     *os.File
	path  string
	seq   uint64
	size  int64
	born  time.Time
}

// SegmentedLog is the sharded, rotating ingest WAL.
type SegmentedLog struct {
	dir string
	cfg SegmentedConfig

	epoch atomic.Uint64

	mu      sync.Mutex // seq allocation + sealed list
	nextSeq uint64
	sealed  []sealedSegment

	active []activeSegment

	degraded  atomic.Bool
	errCount  atomic.Int64
	rotations atomic.Int64
	retired   atomic.Int64
	lastErrMu sync.Mutex
	lastErr   string

	fault  atomic.Pointer[func() error]
	closed atomic.Bool
}

// OpenSegmented opens (or creates) the segmented WAL directory. Existing
// segments — a previous process's log, already replayed by the caller —
// are adopted as sealed: they retire with the next covering durable
// compaction, and new appends go to fresh segments numbered after them.
func OpenSegmented(dir string, cfg SegmentedConfig) (*SegmentedLog, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: create wal dir: %w", err)
	}
	l := &SegmentedLog{dir: dir, cfg: cfg, nextSeq: 1}
	l.epoch.Store(cfg.Epoch)
	l.active = make([]activeSegment, cfg.Shards)
	for i := range l.active {
		l.active[i].shard = i
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: scan wal dir: %w", err)
	}
	for _, e := range entries {
		seq, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		l.sealed = append(l.sealed, sealedSegment{seq: seq, path: filepath.Join(dir, e.Name())})
		if seq >= l.nextSeq {
			l.nextSeq = seq + 1
		}
	}
	sort.Slice(l.sealed, func(i, j int) bool { return l.sealed[i].seq < l.sealed[j].seq })
	return l, nil
}

// parseSegmentName extracts the sequence number from seg-<epoch>-<seq>.log.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	var epoch, seq uint64
	if _, err := fmt.Sscanf(name, "seg-%d-%d.log", &epoch, &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// SetEpoch updates the epoch stamped into subsequently created segment
// names. Informational — retirement keys on seq — but it makes ls(1) of
// the wal directory tell the compaction story.
func (l *SegmentedLog) SetEpoch(e uint64) { l.epoch.Store(e) }

// SetFault installs a write-fault hook (tests only): fn is consulted
// before each frame write and a non-nil error fails that attempt.
func (l *SegmentedLog) SetFault(fn func() error) {
	if fn == nil {
		l.fault.Store(nil)
		return
	}
	l.fault.Store(&fn)
}

// Degraded reports whether the last append exhausted its retries: the
// system is live but accepting updates it cannot promise to recover
// after a crash. The next successful append clears it.
func (l *SegmentedLog) Degraded() bool { return l.degraded.Load() }

// LastError returns the most recent append failure ("" when none).
func (l *SegmentedLog) LastError() string {
	l.lastErrMu.Lock()
	defer l.lastErrMu.Unlock()
	return l.lastErr
}

// SegStats snapshots the log.
type SegStats struct {
	Segments     int   // segment files alive (sealed + active)
	Sealed       int   // sealed, awaiting retirement
	Rotations    int64 // segments created
	Retired      int64 // segments removed by Retire
	AppendErrors int64 // appends that exhausted their retries
	Degraded     bool
	LastError    string
}

// Stats snapshots the log's counters.
func (l *SegmentedLog) Stats() SegStats {
	l.mu.Lock()
	sealed := len(l.sealed)
	l.mu.Unlock()
	activeN := 0
	for i := range l.active {
		a := &l.active[i]
		a.mu.Lock()
		if a.f != nil {
			activeN++
		}
		a.mu.Unlock()
	}
	return SegStats{
		Segments:     sealed + activeN,
		Sealed:       sealed,
		Rotations:    l.rotations.Load(),
		Retired:      l.retired.Load(),
		AppendErrors: l.errCount.Load(),
		Degraded:     l.degraded.Load(),
		LastError:    l.LastError(),
	}
}

// AppendUpdates durably appends one batch to the shard's stream.
func (l *SegmentedLog) AppendUpdates(shard int, batch []Update) error {
	if len(batch) == 0 {
		return nil
	}
	return l.appendFrame(shard, encodeFrame(frameUpdates, len(batch), encodeUpdateRecords(batch)))
}

// AppendObs durably appends one carry batch of raw delta observations.
func (l *SegmentedLog) AppendObs(shard int, obs []stindex.DeltaObs) error {
	if len(obs) == 0 {
		return nil
	}
	return l.appendFrame(shard, encodeFrame(frameObs, len(obs), encodeObsRecords(obs)))
}

func (l *SegmentedLog) appendFrame(shard int, frame []byte) error {
	if l.closed.Load() {
		return errors.New("ingest: wal is closed")
	}
	a := &l.active[shard%len(l.active)]
	a.mu.Lock()
	defer a.mu.Unlock()
	var err error
	backoff := l.cfg.Backoff
	for attempt := 0; attempt <= l.cfg.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		var torn bool
		if torn, err = l.writeFrameLocked(a, frame); err == nil {
			if l.degraded.CompareAndSwap(true, false) {
				log.Printf("ingest: wal append recovered on shard %d; durability restored", a.shard)
			}
			return nil
		}
		if torn {
			// The failure may have left a torn frame at the tail; seal the
			// segment so the retry starts a fresh file instead of burying
			// good frames behind a tear that ends replay.
			l.sealLocked(a)
		}
	}
	l.errCount.Add(1)
	l.setLastErr(err)
	if l.degraded.CompareAndSwap(false, true) {
		log.Printf("ingest: wal append failed after %d attempts (%v); durability degraded, updates stay live", l.cfg.Retries+1, err)
	}
	return err
}

// writeFrameLocked writes one frame to the shard's active segment,
// rotating first when the segment is absent, full, or stale. torn
// reports whether the failure could have left partial bytes in the
// file (write/sync), as opposed to failing cleanly before any write.
func (l *SegmentedLog) writeFrameLocked(a *activeSegment, frame []byte) (torn bool, err error) {
	if a.f == nil || a.size >= l.cfg.SegmentBytes || time.Since(a.born) >= l.cfg.SegmentAge {
		if err := l.rotateLocked(a); err != nil {
			return false, err
		}
	}
	if fault := l.fault.Load(); fault != nil {
		if err := (*fault)(); err != nil {
			return false, err
		}
	}
	storage.CrashPoint("wal.append")
	if _, err := a.f.Write(frame); err != nil {
		return true, fmt.Errorf("ingest: append wal segment %s: %w", filepath.Base(a.path), err)
	}
	a.size += int64(len(frame))
	storage.CrashPoint("wal.sync")
	if err := a.f.Sync(); err != nil {
		return true, fmt.Errorf("ingest: sync wal segment %s: %w", filepath.Base(a.path), err)
	}
	return false, nil
}

// rotateLocked seals the shard's current segment (if any) and opens a
// fresh one: header written and synced, creation made durable with a
// directory sync before any frame can land in it.
func (l *SegmentedLog) rotateLocked(a *activeSegment) error {
	l.sealLocked(a)
	l.mu.Lock()
	seq := l.nextSeq
	l.nextSeq++
	l.mu.Unlock()
	name := fmt.Sprintf("seg-%06d-%08d.log", l.epoch.Load(), seq)
	path := filepath.Join(l.dir, name)
	storage.CrashPoint("wal.create")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: create wal segment: %w", err)
	}
	hdr := make([]byte, segHeaderSize)
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], segVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(a.shard))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint64(hdr[16:24], l.epoch.Load())
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("ingest: write wal segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("ingest: sync wal segment header: %w", err)
	}
	if err := storage.SyncDir(l.dir); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("ingest: sync wal dir: %w", err)
	}
	a.f, a.path, a.seq, a.size, a.born = f, path, seq, segHeaderSize, time.Now()
	l.rotations.Add(1)
	return nil
}

// sealLocked closes the shard's active segment and queues it for
// retirement. Caller holds a.mu.
func (l *SegmentedLog) sealLocked(a *activeSegment) {
	if a.f == nil {
		return
	}
	storage.CrashPoint("wal.seal")
	a.f.Sync()
	a.f.Close()
	l.mu.Lock()
	l.sealed = append(l.sealed, sealedSegment{seq: a.seq, path: a.path})
	l.mu.Unlock()
	a.f = nil
}

// Seal closes every active segment and returns the retirement cut: the
// highest sequence number allocated so far. A durable compaction calls
// Seal before snapshotting the delta layer — every record in a segment
// at or below the cut is in that snapshot (folded or carried) — and
// passes the cut to Retire once the fold has persisted. Appends after
// Seal open fresh segments above the cut.
func (l *SegmentedLog) Seal() uint64 {
	l.mu.Lock()
	cut := l.nextSeq - 1
	l.mu.Unlock()
	for i := range l.active {
		a := &l.active[i]
		a.mu.Lock()
		l.sealLocked(a)
		a.mu.Unlock()
	}
	return cut
}

// Retire removes every sealed segment at or below the cut — they are
// covered by a durably persisted compaction epoch — and syncs the
// directory. A failed removal is logged and the segment left behind:
// replay is idempotent, so an undead segment costs reopen time, never
// correctness.
func (l *SegmentedLog) Retire(cut uint64) error {
	l.mu.Lock()
	var gone []sealedSegment
	keep := l.sealed[:0]
	for _, s := range l.sealed {
		if s.seq <= cut {
			gone = append(gone, s)
		} else {
			keep = append(keep, s)
		}
	}
	l.sealed = keep
	l.mu.Unlock()
	if len(gone) == 0 {
		return nil
	}
	var firstErr error
	for _, s := range gone {
		storage.CrashPoint("wal.retire")
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			log.Printf("ingest: retire wal segment %s: %v (left for replay)", filepath.Base(s.path), err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		l.retired.Add(1)
	}
	if err := storage.SyncDir(l.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Close seals every active segment. Sealed segments stay on disk for
// the next open's replay.
func (l *SegmentedLog) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	l.Seal()
	return nil
}

func (l *SegmentedLog) setLastErr(err error) {
	l.lastErrMu.Lock()
	l.lastErr = err.Error()
	l.lastErrMu.Unlock()
}

// encodeFrame frames a record payload: kind, count, payload, CRC.
func encodeFrame(kind byte, count int, payload []byte) []byte {
	buf := make([]byte, 1+4+len(payload)+4)
	buf[0] = kind
	binary.LittleEndian.PutUint32(buf[1:5], uint32(count))
	copy(buf[5:], payload)
	h := storage.NewChecksum()
	h.Write(buf[:5+len(payload)])
	binary.LittleEndian.PutUint32(buf[5+len(payload):], h.Sum32())
	return buf
}

func encodeObsRecords(obs []stindex.DeltaObs) []byte {
	buf := make([]byte, obsRecordSize*len(obs))
	off := 0
	for _, o := range obs {
		binary.LittleEndian.PutUint32(buf[off:], uint32(o.Seg))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(o.Slot))
		binary.LittleEndian.PutUint16(buf[off+8:], uint16(o.Day))
		binary.LittleEndian.PutUint16(buf[off+10:], uint16(o.Taxi))
		off += obsRecordSize
	}
	return buf
}

// ReplayStats reports one ReplaySegments pass.
type ReplayStats struct {
	Segments        int   // segment files replayed (fully or partially)
	CorruptSegments int   // segments with a damaged header or frame
	Updates         int   // kind-0 records delivered
	Obs             int   // kind-1 (carry) records delivered
	TruncatedBytes  int64 // corrupt suffix bytes cut off in place
}

// ReplaySegments replays every segment under dir: segments group by the
// shard recorded in their headers, shards replay in parallel (up to
// workers goroutines), and segments within a shard replay in sequence
// order. The apply callbacks must be safe for concurrent use.
//
// Damage containment is per segment: a frame that fails its CRC (or a
// truncated tail) ends that segment's replay, the file is truncated in
// place to its intact prefix — so the prefix stays durable for the
// next open without re-replaying a corrupt tail forever — and later
// segments replay normally. A segment with an unreadable header is
// removed entirely. A missing dir replays nothing.
func ReplaySegments(dir string, workers int, applyUpdates func([]Update) error, applyObs func([]stindex.DeltaObs) error) (ReplayStats, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return ReplayStats{}, nil
		}
		return ReplayStats{}, fmt.Errorf("ingest: scan wal dir: %w", err)
	}
	type segFile struct {
		seq  uint64
		path string
	}
	var stats ReplayStats
	var statsMu sync.Mutex
	groups := make(map[int][]segFile)
	for _, e := range entries {
		seq, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		path := filepath.Join(dir, e.Name())
		shard, err := readSegmentHeader(path)
		if err != nil {
			log.Printf("ingest: wal segment %s header unreadable (%v): dropped", e.Name(), err)
			os.Remove(path)
			statsMu.Lock()
			stats.CorruptSegments++
			statsMu.Unlock()
			continue
		}
		groups[shard] = append(groups[shard], segFile{seq: seq, path: path})
	}
	if len(groups) == 0 {
		if stats.CorruptSegments > 0 {
			storage.SyncDir(dir)
		}
		return stats, nil
	}
	if workers <= 0 {
		workers = 1
	}
	shardCh := make(chan []segFile, len(groups))
	for _, segs := range groups {
		sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
		shardCh <- segs
	}
	close(shardCh)
	if workers > len(groups) {
		workers = len(groups)
	}
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for segs := range shardCh {
				for _, sf := range segs {
					st, err := replaySegment(sf.path, applyUpdates, applyObs)
					statsMu.Lock()
					stats.Segments++
					stats.Updates += st.Updates
					stats.Obs += st.Obs
					stats.TruncatedBytes += st.TruncatedBytes
					stats.CorruptSegments += st.CorruptSegments
					statsMu.Unlock()
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	storage.SyncDir(dir)
	return stats, firstErr
}

// readSegmentHeader validates a segment's header and returns its shard.
func readSegmentHeader(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	hdr := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return 0, xerr.Markf(xerr.KindCorrupt, "truncated header: %v", err)
	}
	if string(hdr[:4]) != segMagic {
		return 0, xerr.Markf(xerr.KindCorrupt, "bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != segVersion {
		return 0, xerr.Markf(xerr.KindCorrupt, "unsupported version %d", v)
	}
	return int(binary.LittleEndian.Uint16(hdr[6:8])), nil
}

// replaySegment streams one segment's intact frames to the callbacks.
// Corruption truncates the file to the intact prefix and stops this
// segment only; the error return is reserved for apply failures.
func replaySegment(path string, applyUpdates func([]Update) error, applyObs func([]stindex.DeltaObs) error) (ReplayStats, error) {
	var stats ReplayStats
	f, err := os.Open(path)
	if err != nil {
		return stats, nil // raced a retire; nothing to replay
	}
	// The file's length bounds every frame: a count in a torn or
	// damaged header must not size an allocation past it.
	size := int64(math.MaxInt64)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	br := bufio.NewReader(f)
	if _, err := br.Discard(segHeaderSize); err != nil {
		f.Close()
		return stats, nil
	}
	good := int64(segHeaderSize)
	var hdr [5]byte
	corrupt := ""
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err != io.EOF {
				corrupt = fmt.Sprintf("truncated frame header: %v", err)
			}
			break
		}
		kind := hdr[0]
		n := int(binary.LittleEndian.Uint32(hdr[1:5]))
		recSize := 0
		switch kind {
		case frameUpdates:
			recSize = recordSize
		case frameObs:
			recSize = obsRecordSize
		default:
			corrupt = fmt.Sprintf("unknown frame kind %d", kind)
		}
		if corrupt == "" && (n <= 0 || n > 1<<20) {
			corrupt = fmt.Sprintf("implausible frame count %d", n)
		}
		if left := size - good - int64(len(hdr)); corrupt == "" && int64(recSize*n+4) > left {
			corrupt = fmt.Sprintf("truncated frame: %d records need %d bytes, %d left", n, recSize*n+4, left)
		}
		if corrupt != "" {
			break
		}
		payload := make([]byte, recSize*n+4)
		if _, err := io.ReadFull(br, payload); err != nil {
			corrupt = fmt.Sprintf("truncated frame: %v", err)
			break
		}
		h := storage.NewChecksum()
		h.Write(hdr[:])
		h.Write(payload[:recSize*n])
		if got, want := h.Sum32(), binary.LittleEndian.Uint32(payload[recSize*n:]); got != want {
			corrupt = fmt.Sprintf("frame checksum mismatch (stored %08x, computed %08x)", want, got)
			break
		}
		switch kind {
		case frameUpdates:
			batch := decodeUpdateRecords(payload[:recSize*n], n)
			if err := applyUpdates(batch); err != nil {
				f.Close()
				return stats, err
			}
			stats.Updates += n
		case frameObs:
			obs := decodeObsRecords(payload[:recSize*n], n)
			if err := applyObs(obs); err != nil {
				f.Close()
				return stats, err
			}
			stats.Obs += n
		}
		good += int64(5 + recSize*n + 4)
	}
	f.Close()
	if corrupt != "" {
		stats.CorruptSegments++
		if fi, err := os.Stat(path); err == nil && fi.Size() > good {
			stats.TruncatedBytes = fi.Size() - good
			log.Printf("ingest: wal segment %s corrupt after %d bytes (%s): truncating %d-byte suffix, later segments unaffected",
				filepath.Base(path), good, corrupt, stats.TruncatedBytes)
			storage.CrashPoint("wal.truncate")
			if w, err := os.OpenFile(path, os.O_WRONLY, 0); err == nil {
				if err := w.Truncate(good); err == nil {
					w.Sync()
				} else {
					log.Printf("ingest: truncate corrupt wal segment %s: %v", filepath.Base(path), err)
				}
				w.Close()
			} else {
				log.Printf("ingest: open corrupt wal segment %s for repair: %v", filepath.Base(path), err)
			}
		}
	}
	return stats, nil
}

func decodeObsRecords(payload []byte, n int) []stindex.DeltaObs {
	obs := make([]stindex.DeltaObs, n)
	off := 0
	for i := range obs {
		obs[i] = stindex.DeltaObs{
			Seg:  roadnet.SegmentID(binary.LittleEndian.Uint32(payload[off:])),
			Slot: int(binary.LittleEndian.Uint32(payload[off+4:])),
			Day:  traj.Day(binary.LittleEndian.Uint16(payload[off+8:])),
			Taxi: traj.TaxiID(binary.LittleEndian.Uint16(payload[off+10:])),
		}
		off += obsRecordSize
	}
	return obs
}
