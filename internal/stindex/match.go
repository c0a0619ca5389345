package stindex

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"streach/internal/roadnet"
	"streach/internal/storage"
)

// Streaming verification (DESIGN.md §3).
//
// A probe asks one question of a candidate segment: on how many days
// does some taxi of the query's start set also appear in the candidate's
// time lists inside the window? Decoding every list into a TimeListBits
// to answer it spends nearly all of its time building values that are
// read once and dropped. A Matcher answers the question on the encoded
// bytes instead: it walks each blob where it lies in the pooled page,
// tests sparse (v1) taxi IDs as single bits of the start set and ANDs
// bitset (v2) lists word by word as little-endian loads, and keeps only
// a day mask per source as state.

// MatchSets is the probe side of a streaming match: per source, the
// per-day taxi bitset a candidate's lists are intersected with. It is
// immutable once built and shared by every Matcher of a query.
type MatchSets struct {
	days int
	// sets[i][d] is source i's taxi bitset on day d (nil: no traffic).
	sets [][][]uint64
	// need[i] has bit d set when sets[i][d] holds any taxi — the only
	// (source, day) pairs a candidate can ever match.
	need  [][]uint64
	needN int // set bits across need
}

// NewMatchSets wraps per-source, per-day taxi bitsets (each sets[i] is
// indexed by day and has exactly days entries). The slices are retained,
// not copied.
func NewMatchSets(days int, sets [][][]uint64) *MatchSets {
	s := &MatchSets{days: days, sets: sets, need: make([][]uint64, len(sets))}
	words := (days + 63) / 64
	for i, byDay := range sets {
		s.need[i] = make([]uint64, words)
		for d, set := range byDay {
			for _, w := range set {
				if w != 0 {
					s.need[i][d>>6] |= 1 << (uint(d) & 63)
					s.needN++
					break
				}
			}
		}
	}
	return s
}

// matchState is one in-flight match: which (source, day) pairs are still
// unmatched. Matching only ever clears bits, so every list of a window —
// base blobs, a superseded base read before a compaction swap, pending
// deltas — can be folded in in any order and the result is the match
// against their union.
type matchState struct {
	s *MatchSets
	// pend[i] holds the days source i still needs; any is their union
	// over sources, left the number of set bits across pend.
	pend [][]uint64
	any  []uint64
	left int
}

func newMatchState(s *MatchSets) matchState {
	st := matchState{s: s, pend: make([][]uint64, len(s.need)), any: make([]uint64, (s.days+63)/64)}
	for i, n := range s.need {
		st.pend[i] = make([]uint64, len(n))
	}
	return st
}

// reset starts a new candidate: every matchable (source, day) is pending.
func (st *matchState) reset() {
	clear(st.any)
	for i, n := range st.s.need {
		copy(st.pend[i], n)
		for w, v := range n {
			st.any[w] |= v
		}
	}
	st.left = st.s.needN
}

// wants reports whether any source still needs day d.
func (st *matchState) wants(d int) bool {
	return d < st.s.days && st.any[d>>6]&(1<<(uint(d)&63)) != 0
}

// settle records that hit matched day d for source i, and retires the
// day once no source needs it.
func (st *matchState) settle(d int, test func(set []uint64) bool) {
	w, bit := d>>6, uint64(1)<<(uint(d)&63)
	still := false
	for i, p := range st.pend {
		if p[w]&bit == 0 {
			continue
		}
		if test(st.s.sets[i][d]) {
			p[w] &^= bit
			st.left--
		} else {
			still = true
		}
	}
	if !still {
		st.any[w] &^= bit
	}
}

// best is the largest per-source count of matched days.
func (st *matchState) best() int {
	best := 0
	for i, n := range st.s.need {
		matched := 0
		for w, v := range n {
			matched += bits.OnesCount64(v &^ st.pend[i][w])
		}
		if matched > best {
			best = matched
		}
	}
	return best
}

// matchDelta folds a pending delta entry's day map in.
func (st *matchState) matchDelta(days map[int][]uint64) {
	for d, words := range days {
		if st.wants(d) {
			st.settle(d, func(set []uint64) bool { return BitsIntersect(set, words) })
		}
	}
}

// matchBlob folds one encoded time list in without decoding it. The blob
// is validated exactly as decodeTimeListBits validates it — the whole
// framing, and for sparse lists the ordering of every day's entries —
// and a blob the decoder rejects returns the decoder's error, whether or
// not the damaged part was needed; only the matching itself skips days
// nobody is waiting for. On error the state is undefined.
func (st *matchState) matchBlob(blob []byte) error {
	if len(blob) < 2 {
		return nil
	}
	if !isBitsBlob(blob) {
		return st.matchV1(blob)
	}
	if len(blob) < 6 {
		return fmt.Errorf("stindex: truncated bitset time list header")
	}
	numDays := int(binary.LittleEndian.Uint16(blob[2:4]))
	maskWords := int(binary.LittleEndian.Uint16(blob[4:6]))
	if maskWords > maxDays/64 {
		return fmt.Errorf("stindex: bitset day mask of %d words is past the format's %d days", maskWords, maxDays)
	}
	off := 6 + 8*maskWords
	if off > len(blob) {
		return fmt.Errorf("stindex: truncated bitset day mask")
	}
	mask := blob[6:off]
	got := 0
	for wi := 0; wi < maskWords; wi++ {
		got += bits.OnesCount64(binary.LittleEndian.Uint64(mask[8*wi:]))
	}
	if got != numDays {
		return fmt.Errorf("stindex: bitset day count %d does not match mask popcount %d", numDays, got)
	}
	i := 0
	for wi := 0; wi < maskWords; wi++ {
		for w := binary.LittleEndian.Uint64(mask[8*wi:]); w != 0; w &= w - 1 {
			if off+2 > len(blob) {
				return fmt.Errorf("stindex: truncated bitset entry header at day %d", i)
			}
			nw := int(binary.LittleEndian.Uint16(blob[off:]))
			if off+2+8*nw > len(blob) {
				return fmt.Errorf("stindex: truncated bitset entry at day %d", i)
			}
			words := blob[off+2 : off+2+8*nw]
			off += 2 + 8*nw
			i++
			if d := wi<<6 + bits.TrailingZeros64(w); st.wants(d) {
				st.settle(d, func(set []uint64) bool {
					n := nw
					if len(set) < n {
						n = len(set)
					}
					for j := 0; j < n; j++ {
						if set[j]&binary.LittleEndian.Uint64(words[8*j:]) != 0 {
							return true
						}
					}
					return false
				})
			}
		}
	}
	return nil
}

// matchV1 is matchBlob for the sparse encoding: per day, a sorted u32
// taxi list whose entries are tested as single bits of the start sets.
func (st *matchState) matchV1(blob []byte) error {
	numDays := int(binary.LittleEndian.Uint16(blob[:2]))
	off := 2
	// The decoder checks all framing before any ordering, so an ordering
	// fault is only reported once the framing has held to the end.
	unsorted := -1
	for i := 0; i < numDays; i++ {
		if off+4 > len(blob) {
			return fmt.Errorf("stindex: truncated time list header at day %d", i)
		}
		d := int(binary.LittleEndian.Uint16(blob[off:]))
		cnt := int(binary.LittleEndian.Uint16(blob[off+2:]))
		off += 4
		if d >= maxDays {
			return fmt.Errorf("stindex: time list day %d is past the format's %d days", d, maxDays)
		}
		if off+4*cnt > len(blob) {
			return fmt.Errorf("stindex: truncated time list entries at day %d", i)
		}
		taxis := blob[off : off+4*cnt]
		off += 4 * cnt
		if cnt == 0 {
			continue
		}
		last := binary.LittleEndian.Uint32(taxis[4*(cnt-1):])
		if last >= maxTaxis {
			return fmt.Errorf("stindex: time list taxi %d is past the format's %d taxis", last, maxTaxis)
		}
		if unsorted >= 0 {
			continue
		}
		lastWord := last >> 6
		for j := 0; j < cnt-1; j++ {
			if binary.LittleEndian.Uint32(taxis[4*j:])>>6 > lastWord {
				unsorted = i
				break
			}
		}
		if unsorted < 0 && st.wants(d) {
			st.settle(d, func(set []uint64) bool {
				for j := 0; j < cnt; j++ {
					t := binary.LittleEndian.Uint32(taxis[4*j:])
					if w := int(t >> 6); w < len(set) && set[w]&(1<<(t&63)) != 0 {
						return true
					}
				}
				return false
			})
		}
	}
	if unsorted >= 0 {
		return fmt.Errorf("stindex: unsorted time list entries at day %d", unsorted)
	}
	return nil
}

// Matcher runs streaming matches for one verification worker. It owns a
// page-memoising blob reader and the per-candidate day masks, so a match
// allocates nothing. Not safe for concurrent use; create one per
// goroutine (they share the MatchSets).
type Matcher struct {
	x *Index
	matchState
	reader *storage.BlobReader
	// table is the installed handle table the reader's page memo was
	// filled under. A compaction appends blobs and then installs a new
	// table; a page memoised before that may predate those blobs, so the
	// memo is dropped whenever the installed table is no longer this one.
	table *handleTable
	lists int64
}

// NewMatcher returns a matcher reading candidate time lists from x (a
// shard's slice during scatter verification) against the shared sets.
func (x *Index) NewMatcher(s *MatchSets) *Matcher {
	return &Matcher{x: x, matchState: newMatchState(s), reader: x.blob.NewReader()}
}

// Lists reports how many non-empty time lists (base blobs and pending
// delta entries) the matcher has walked so far.
func (m *Matcher) Lists() int64 { return m.lists }

// handles returns the installed handle table, dropping the page memo
// when it is not the table the memo was filled under.
func (m *Matcher) handles() handleTable {
	t := m.x.live.handles.Load()
	if t != m.table {
		m.reader.Reset()
		m.table = t
	}
	return *t
}

// Match returns, for the time lists of (seg, loSlot..hiSlot), the largest
// per-source number of days on which the source's start set shares a
// taxi with some list of the window — the numerator of Eq. 3.1. It is
// the value decoding every list with TimeListsRange and intersecting
// day by day would give, including the ownership error of a shard
// slice. The walk stops as soon as every (source, day) that
// can match has: further lists cannot change the count, which is what
// makes the early exit exact.
func (m *Matcher) Match(seg roadnet.SegmentID, loSlot, hiSlot int) (int, error) {
	x := m.x
	nseg := x.net.NumSegments()
	if seg < 0 || int(seg) >= nseg {
		return 0, nil
	}
	if err := x.checkOwned(seg); err != nil {
		return 0, err
	}
	if loSlot < 0 {
		loSlot = 0
	}
	if hiSlot >= x.numSlots {
		hiSlot = x.numSlots - 1
	}
	m.reset()
	// Same order as TimeListsRange: an empty delta layer observed before
	// the table is loaded means the table already holds every fold.
	deltaEmpty := x.live.pending.Load() == 0
	handles := m.handles()
	for slot := loSlot; slot <= hiSlot && m.left > 0; slot++ {
		key := slot*nseg + int(seg)
		if !deltaEmpty {
			if err := m.matchMerged(key, seg, slot); err != nil {
				return 0, err
			}
			continue
		}
		if h := handles.at(slot, int(seg)); !h.IsZero() {
			if err := m.matchHandle(h, seg, slot); err != nil {
				return 0, err
			}
		}
	}
	return m.best(), nil
}

// matchHandle walks one base blob in place.
func (m *Matcher) matchHandle(h storage.BlobHandle, seg roadnet.SegmentID, slot int) error {
	blob, err := m.reader.Read(h)
	if err != nil {
		return fmt.Errorf("stindex: read time list seg=%d slot=%d: %w", seg, slot, err)
	}
	m.lists++
	return m.matchBlob(blob)
}

// matchMerged matches one key's base blob and pending delta with the
// discipline of readMerged: the base is walked outside the lock, then
// under RLock the handle is re-checked — a compaction that swapped the
// table in between may already have cleared the delta it folded, so the
// key is walked again on the new table — and the delta entry is
// intersected where it lies instead of being merged into a copy. What
// the superseded base matched stays matched: a fold only ever adds to a
// key's base.
func (m *Matcher) matchMerged(key int, seg roadnet.SegmentID, slot int) error {
	lv := m.x.live
	for {
		h := m.handles().at(slot, int(seg))
		if !h.IsZero() {
			if err := m.matchHandle(h, seg, slot); err != nil {
				return err
			}
		}
		if m.left == 0 {
			return nil
		}
		lv.mu.RLock()
		if lv.handles.Load().at(slot, int(seg)) != h {
			lv.mu.RUnlock()
			continue
		}
		if e := lv.entries[key]; e != nil {
			m.lists++
			m.matchDelta(e.days)
		}
		lv.mu.RUnlock()
		return nil
	}
}
