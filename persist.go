package streach

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"streach/internal/conindex"
	"streach/internal/ingest"
	"streach/internal/roadnet"
	"streach/internal/stindex"
	"streach/internal/storage"
	"streach/internal/traj"
)

// On-disk layout of a saved system:
//
//	dir/network.bin    road network (roadnet codec)
//	dir/dataset.bin    matched trajectories (traj codec). The indexes
//	                   are derived from it; an opened system checks its
//	                   structure, keeps its statistics and reads it again
//	                   only on demand (see System.Dataset).
//	dir/pages.db       ST-Index time-list pages
//	dir/stindex.meta   ST-Index metadata and handle table (flat,
//	                   slot-major, one handle per (slot, segment))
//	dir/conindex.bin   Con-Index speed statistics
//	dir/conindex.adj   Con-Index materialised Near/Far adjacency rows
//	                   (optional warm cache: the rows of all four tables,
//	                   each as a sorted ID list or a bitset, whichever is
//	                   smaller; see conindex.SaveAdjacency). A directory
//	                   without it reopens with cold, lazily-materialised
//	                   tables.
//	dir/planshapes.bin recorded plan shapes (optional warm-start hint;
//	                   see warmplans.go)
//
// The four files derived from the ground truth — stindex.meta,
// conindex.bin, conindex.adj and planshapes.bin — share one checksummed
// frame (storage.ChecksumWriter, DESIGN.md §11.3). One that does not
// load, whatever the reason (a layout from before the frame included),
// is rebuilt from the trajectories or, for the two warm caches, dropped.
// The network and the dataset keep their own codecs: they have no
// rebuild path.
//
// A live-ingesting system adds a write-ahead log directory:
//
//	dir/wal/           segmented write-ahead log of accepted live
//	                   updates not yet covered by a durable compaction:
//	                   size/age-rotated per-shard segment files
//	                   seg-<epoch>-<seq>.log ("IDSG" format; see
//	                   internal/ingest). OpenSystem replays the shards
//	                   in parallel; a corrupt frame is detected by its
//	                   CRC and the segment truncated to its intact
//	                   prefix, with later segments unaffected — never
//	                   silently merged.
//
// dir/ingest.delta, the single-file WAL of builds before the segmented
// one, is no longer read: OpenSystem refuses a directory that holds a
// non-empty one rather than drop the updates in it.
const (
	fileNetwork     = "network.bin"
	fileDataset     = "dataset.bin"
	filePages       = "pages.db"
	fileSTMeta      = "stindex.meta"
	fileConIndex    = "conindex.bin"
	fileConAdj      = "conindex.adj"
	fileIngestDelta = "ingest.delta"
	filePlanShapes  = "planshapes.bin"
	walDirName      = "wal"
)

// Save persists the whole system into dir (created if absent): network,
// trajectories, and both indexes. A saved system reopens with OpenSystem
// without re-simulating or re-indexing. Every file is installed
// atomically, so a crash mid-save — into the directory the system was
// opened from as into any other — leaves a directory that opens.
//
// Note: a system built with an in-memory page store is persisted by
// copying its pages into dir/pages.db.
func (s *System) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("streach: create %s: %w", dir, err)
	}
	if err := writeFileAtomic(dir, fileNetwork, func(w io.Writer) error { return roadnet.WriteNetwork(w, s.net) }); err != nil {
		return err
	}
	if err := s.saveDataset(dir); err != nil {
		return err
	}
	if err := s.persistIndexes(dir); err != nil {
		return err
	}
	// The directory now holds the whole system: remember it so
	// CompactIngestN can persist folds (and place the ingest WAL) here.
	s.dir = dir
	return nil
}

// pagesLiveIn reports whether dir/pages.db is the file the pool's store
// holds open, however dir is spelled. Then syncing the pool is all it
// takes to bring that file up to date, and writing it any other way
// would truncate the store under the pool. Anywhere else — a memory- or
// PageFile-backed system, or an opened system saved into a second
// directory — the pages have to be copied there.
func (s *System) pagesLiveIn(dir string) bool {
	if s.pagesDir == "" {
		return false
	}
	if s.pagesDir == dir {
		return true
	}
	held, err := os.Stat(filepath.Join(s.pagesDir, filePages))
	if err != nil {
		return false
	}
	there, err := os.Stat(filepath.Join(dir, filePages))
	return err == nil && os.SameFile(held, there)
}

// saveDataset puts the base dataset into dir/dataset.bin: encoded from
// memory for a system that holds it, copied byte for byte from the
// system's own directory for one that was opened from disk — unless that
// file is the destination, which is then already in place.
func (s *System) saveDataset(dir string) error {
	if s.ds != nil {
		return writeFileAtomic(dir, fileDataset, func(w io.Writer) error { return traj.WriteDataset(w, s.ds) })
	}
	src, err := openDataset(s.dir)
	if err != nil {
		return err
	}
	defer src.Close()
	if srcInfo, err := src.Stat(); err == nil {
		if dstInfo, err := os.Stat(filepath.Join(dir, fileDataset)); err == nil && os.SameFile(srcInfo, dstInfo) {
			return nil
		}
	}
	return writeFileAtomic(dir, fileDataset, func(w io.Writer) error {
		_, err := io.Copy(w, src)
		return err
	})
}

// openDataset opens dir/dataset.bin for reading.
func openDataset(dir string) (*os.File, error) {
	f, err := os.Open(filepath.Join(dir, fileDataset))
	if err != nil {
		return nil, fmt.Errorf("streach: open dataset: %w", err)
	}
	return f, nil
}

// scanDataset streams dir/dataset.bin through visit one trajectory at a
// time (traj.ScanDataset; a nil visit only walks the file's structure)
// and returns the dataset's statistics.
func scanDataset(dir string, visit func(*traj.MatchedTrajectory) error) (traj.DatasetStats, error) {
	f, err := openDataset(dir)
	if err != nil {
		return traj.DatasetStats{}, err
	}
	defer f.Close()
	_, stats, err := traj.ScanDataset(f, visit)
	return stats, err
}

// readDataset decodes dir/dataset.bin in full.
func readDataset(dir string) (*traj.Dataset, error) {
	f, err := openDataset(dir)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return traj.ReadDataset(f)
}

// copyPagesTo streams every page of the pool's store into w.
func (s *System) copyPagesTo(w io.Writer) error {
	buf := make([]byte, storage.PageSize)
	n := s.st.Pool().NumPages()
	for id := storage.PageID(0); int64(id) < n; id++ {
		if err := s.st.Pool().ReadPageInto(id, buf); err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// writeFileAtomic writes dir/name via a temp file and rename, so a
// crash mid-write can never leave a half-written file where a valid one
// used to be. The parent directory is fsynced after the rename: without
// it the rename itself can be lost to a power cut, resurrecting the old
// file — legal for the caller (the old state plus a WAL replay), but
// only because the WAL is never retired before this returns.
func writeFileAtomic(dir, name string, fn func(w io.Writer) error) error {
	storage.CrashPoint("persist." + name + ".write")
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("streach: create temp for %s: %w", name, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := fn(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("streach: write %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("streach: sync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("streach: close %s: %w", name, err)
	}
	storage.CrashPoint("persist." + name + ".rename")
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("streach: install %s: %w", name, err)
	}
	storage.CrashPoint("persist." + name + ".dirsync")
	if err := storage.SyncDir(dir); err != nil {
		return fmt.Errorf("streach: sync dir for %s: %w", name, err)
	}
	return nil
}

// persistIndexes makes the system's derived state durable in dir, the
// one write path of Save and of a compaction: the pages first (the blob
// data the new handles point into), then the ST-Index meta, then the
// Con-Index statistics and adjacency rows, each installed atomically,
// and the plan shapes last. Ordering matters for crash consistency: a
// crash between steps leaves a meta whose handles all resolve (the blob
// file is append-only) plus a WAL that replays anything newer.
func (s *System) persistIndexes(dir string) error {
	// Sync, not just Flush: the new blobs must be on stable storage
	// before a meta whose handles (and tail-bounded checksum) reference
	// them can be installed. When the pool's store is dir/pages.db the
	// sync is the write; anywhere else the pages are copied there.
	storage.CrashPoint("persist.pages.flush")
	if err := s.st.Pool().Sync(); err != nil {
		return fmt.Errorf("streach: flush pages: %w", err)
	}
	if !s.pagesLiveIn(dir) {
		if err := writeFileAtomic(dir, filePages, s.copyPagesTo); err != nil {
			return err
		}
	}
	if err := writeFileAtomic(dir, fileSTMeta, s.st.SaveMeta); err != nil {
		return err
	}
	if err := writeFileAtomic(dir, fileConIndex, s.con.Save); err != nil {
		return err
	}
	// The adjacency cache is re-written too: rows invalidated by live
	// speed observations must not resurrect from a stale blob on the
	// next open.
	if err := writeFileAtomic(dir, fileConAdj, s.con.SaveAdjacency); err != nil {
		return err
	}
	// Plan shapes last and best effort: they are a warm-start hint, not
	// crash-consistency state, so a failed write must not fail the save.
	if err := s.savePlanShapes(dir); err != nil {
		log.Printf("streach: save plan shapes: %v", err)
	}
	return nil
}

// OpenSystem reopens a system saved with Save, unsharded. PoolPages
// and TimeListCache are taken from idx; granularity comes from
// the saved indexes, and from idx only when neither index file tells it.
//
// The network and dataset are the ground truth and must load cleanly.
// Both indexes are derived from them, so a corrupt index file — a
// checksum mismatch, truncation, or any other load failure — is
// detected, logged, and repaired by a cold rebuild from the
// trajectories instead of failing the open (or worse, serving wrong
// answers from flipped bits). The repaired index is re-saved into dir
// (best effort) so the next open is warm again.
//
// The opened system holds its indexes, not its input: dataset.bin is
// walked once for structure and statistics (a bad magic, an unsupported
// version or a truncation fails the open) and decoded only if an index
// needs a cold rebuild. What later asks for the trajectories reads the
// file then; see System.Dataset.
func OpenSystem(dir string, idx IndexConfig) (*System, error) {
	if idx.PoolPages == 0 {
		idx.PoolPages = 1024
	}
	// Checked before anything can rewrite dir: ignoring the file would
	// drop updates its writer acknowledged as durable.
	legacyWAL := filepath.Join(dir, fileIngestDelta)
	if fi, err := os.Stat(legacyWAL); err == nil && fi.Size() > 0 {
		return nil, &Error{Code: CorruptData, Op: "open", Err: fmt.Errorf(
			"streach: %s is a write-ahead log (%d bytes) from a build before the segmented WAL, which this build cannot replay: "+
				"open and compact the directory with the build that wrote it, or delete the file to discard the updates in it",
			legacyWAL, fi.Size())}
	}
	netFile, err := os.Open(filepath.Join(dir, fileNetwork))
	if err != nil {
		return nil, fmt.Errorf("streach: open network: %w", err)
	}
	net, err := roadnet.ReadNetwork(netFile)
	netFile.Close()
	if err != nil {
		return nil, err
	}
	dsStats, err := scanDataset(dir, nil)
	if err != nil {
		return nil, err
	}
	// A cold rebuild is the one part of an open that needs the
	// trajectories themselves: decoded at the first rebuild, shared with
	// the second, dropped when OpenSystem returns.
	var ds *traj.Dataset
	rebuildData := func() (*traj.Dataset, error) {
		if ds != nil {
			return ds, nil
		}
		var err error
		ds, err = readDataset(dir)
		return ds, err
	}
	st, stErr := openSTIndex(dir, net, idx)
	con, conErr := openConIndex(dir, net)
	// Cold rebuilds need the saved granularity; a surviving index carries
	// it, an index file saved before the frame names it in its header,
	// otherwise fall back to the configured (or default) slot width.
	slotSec := idx.SlotSeconds
	if st != nil {
		slotSec = st.SlotSeconds()
	} else if con != nil {
		slotSec = con.SlotSeconds()
	} else if sec := preFrameSlotSeconds(dir); sec > 0 {
		slotSec = sec
	}
	if slotSec == 0 {
		slotSec = 300
	}
	if stErr != nil {
		log.Printf("streach: st-index unreadable (%v): cold rebuild from trajectories", stErr)
		data, err := rebuildData()
		if err == nil {
			st, err = rebuildSTIndex(dir, net, data, idx, slotSec)
		}
		if err != nil {
			return nil, fmt.Errorf("streach: st-index cold rebuild: %w", err)
		}
	}
	if conErr != nil {
		log.Printf("streach: con-index unreadable (%v): cold rebuild from trajectories", conErr)
		data, err := rebuildData()
		if err == nil {
			con, err = rebuildConIndex(dir, net, data, slotSec)
		}
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("streach: con-index cold rebuild: %w", err)
		}
	}
	// Restore the persisted adjacency rows when present. The blob is a
	// derived warm cache, so a missing file or a corrupt, mismatched or
	// old-version one must not fail the open: the blob is fully validated
	// and verified before anything is installed, and anything not
	// restored just re-materialises lazily.
	if adjFile, err := os.Open(filepath.Join(dir, fileConAdj)); err == nil {
		if aerr := con.LoadAdjacency(adjFile); aerr != nil {
			log.Printf("streach: con-index adjacency cache unreadable (%v): dropped, rows re-materialise lazily", aerr)
		}
		adjFile.Close()
	}
	// Replay the ingest WAL: live updates accepted since the last durable
	// compaction fold back into the delta layer and the speed statistics
	// (after the adjacency load, so replayed observations invalidate any
	// stale restored rows). Shards replay in parallel. Frame corruption is
	// contained per segment: the file is truncated to its intact prefix
	// and later segments still replay. The apply callbacks hit the same
	// locked index paths the live worker pool does, so concurrent shard
	// replay is safe; both are idempotent, so records that straddle a
	// repaired tail or a carry record simply re-union.
	var segApplied, segDropped, segObs, segObsDropped atomic.Int64
	segStats, segErr := ingest.ReplaySegments(filepath.Join(dir, walDirName), runtime.GOMAXPROCS(0),
		func(batch []ingest.Update) error {
			a, d := ingest.ApplyBatch(st, con, batch)
			segApplied.Add(int64(a))
			segDropped.Add(int64(d))
			return nil
		},
		func(obs []stindex.DeltaObs) error {
			a, d := ingest.ApplyObs(st, obs)
			segObs.Add(int64(a))
			segObsDropped.Add(int64(d))
			return nil
		})
	if segErr != nil {
		st.Close()
		return nil, fmt.Errorf("streach: replay wal segments: %w", segErr)
	}
	if segStats.Segments > 0 {
		log.Printf("streach: replayed %d wal segments: %d updates, %d carried observations (%d dropped, %d segments repaired, %d bytes truncated)",
			segStats.Segments, segApplied.Load()+segDropped.Load(), segObs.Load(),
			segDropped.Load()+segObsDropped.Load(), segStats.CorruptSegments, segStats.TruncatedBytes)
	}
	s, err := assembleSystem(net, nil, dsStats, st, con)
	if err != nil {
		st.Close()
		return nil, err
	}
	// Restore the recorded plan shapes when present. Like the adjacency
	// cache, the ring is a derived warm-start hint: any corruption —
	// CRC mismatch, truncation, oversize, invalid shapes — drops it with
	// a log line and the open proceeds with an empty ring.
	if perr := s.loadPlanShapes(dir); perr != nil {
		log.Printf("streach: plan shapes unreadable (%v): dropped, warm planning starts empty", perr)
	}
	s.dir = dir
	s.pagesDir = dir
	return s, nil
}

// preFrameSlotSeconds is the slot width of a directory whose index
// files were saved before the frame, or 0. Every layout of those files —
// meta v1–v5 ("STIX"), Con-Index v1–v2 ("CIDX") — begins magic |
// version u16 | slotSec u32, so this one field is all an old directory
// needs to be rebuilt at the width it was built at.
func preFrameSlotSeconds(dir string) int {
	for _, old := range []struct {
		file, magic string
		maxVersion  uint16
	}{{fileSTMeta, "STIX", 5}, {fileConIndex, "CIDX", 2}} {
		f, err := os.Open(filepath.Join(dir, old.file))
		if err != nil {
			continue
		}
		var hdr [10]byte
		_, err = io.ReadFull(f, hdr[:])
		f.Close()
		v := binary.LittleEndian.Uint16(hdr[4:])
		sec := int(binary.LittleEndian.Uint32(hdr[6:]))
		if err == nil && string(hdr[:4]) == old.magic && v >= 1 && v <= old.maxVersion && sec > 0 && 86400%sec == 0 {
			return sec
		}
	}
	return 0
}

// openSTIndex loads the persisted ST-Index over dir's page store. Any
// failure — including a checksum mismatch in the meta or the pages —
// closes the store and reports the error for the cold-rebuild path.
func openSTIndex(dir string, net *roadnet.Network, idx IndexConfig) (*stindex.Index, error) {
	store, err := storage.OpenFileStore(filepath.Join(dir, filePages))
	if err != nil {
		return nil, err
	}
	metaFile, err := os.Open(filepath.Join(dir, fileSTMeta))
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("streach: open st-index meta: %w", err)
	}
	st, err := stindex.LoadIndex(net, stindex.Config{
		Store:         store,
		PoolPages:     idx.PoolPages,
		TimeListCache: idx.TimeListCache,
	}, metaFile)
	metaFile.Close()
	if err != nil {
		store.Close()
		return nil, err
	}
	return st, nil
}

// rebuildSTIndex rebuilds the ST-Index from the trajectories over a
// fresh page file, replacing dir's corrupt pages.db, and re-saves the
// meta so the repair is durable (best effort: a failed re-save only
// logs — the in-memory index is already correct).
func rebuildSTIndex(dir string, net *roadnet.Network, ds *traj.Dataset, idx IndexConfig, slotSec int) (*stindex.Index, error) {
	pagePath := filepath.Join(dir, filePages)
	if err := os.Remove(pagePath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	store, err := storage.OpenFileStore(pagePath)
	if err != nil {
		return nil, err
	}
	st, err := stindex.Build(net, ds, stindex.Config{
		SlotSeconds:   slotSec,
		PoolPages:     idx.PoolPages,
		TimeListCache: idx.TimeListCache,
		Store:         store,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	err = st.Pool().Sync()
	if err == nil {
		err = writeFileAtomic(dir, fileSTMeta, st.SaveMeta)
	}
	if err != nil {
		log.Printf("streach: re-save rebuilt st-index: %v", err)
	}
	return st, nil
}

// openConIndex loads the persisted Con-Index statistics.
func openConIndex(dir string, net *roadnet.Network) (*conindex.Index, error) {
	conFile, err := os.Open(filepath.Join(dir, fileConIndex))
	if err != nil {
		return nil, fmt.Errorf("streach: open con-index: %w", err)
	}
	defer conFile.Close()
	return conindex.Load(net, conFile)
}

// rebuildConIndex rebuilds the Con-Index from the trajectories and
// re-saves dir's conindex.bin (best effort).
func rebuildConIndex(dir string, net *roadnet.Network, ds *traj.Dataset, slotSec int) (*conindex.Index, error) {
	con, err := conindex.Build(net, ds, conindex.Config{SlotSeconds: slotSec})
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(dir, fileConIndex, con.Save); err != nil {
		log.Printf("streach: re-save rebuilt con-index: %v", err)
	}
	return con, nil
}
