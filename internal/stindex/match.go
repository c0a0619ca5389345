package stindex

import (
	"fmt"
	"math/bits"

	"streach/internal/bitset"
	"streach/internal/roadnet"
	"streach/internal/storage"
)

// Verification on the encoded bytes (DESIGN.md §3).
//
// A probe asks one question of a candidate segment: on how many days
// does some taxi of the query's start set also appear in the candidate's
// time lists inside the window? Decoding every list into a TimeListBits
// to answer it spends nearly all of its time building values that are
// read once and dropped. A Matcher answers the question on the packed
// bytes instead: it walks each blob where it lies in the pooled page and
// settles every (day, taxi) entry with one lookup in a per-taxi day
// mask, keeping only a day mask per source as state. Legacy (v1, v2)
// blobs, which only an index written before the packed format holds
// until compaction rewrites them, go through the decoder.

// MatchSets is the probe side of a match: per source, the per-day taxi
// bitset a candidate's lists are intersected with, and the same sets
// turned around into per-taxi day masks. It is immutable once built and
// shared by every Matcher of a query.
type MatchSets struct {
	days int
	// dw is the number of words in a day mask.
	dw int
	// sets[i][d] is source i's taxi bitset on day d (nil: no traffic).
	sets [][][]uint64
	// byTaxi[i][t*dw+w] is word w of the mask of days on which source i
	// holds taxi t, for t below taxis (no source holds a higher one).
	byTaxi [][]uint64
	taxis  int
	// need[i] has bit d set when sets[i][d] holds any taxi — the only
	// (source, day) pairs a candidate can ever match.
	need  [][]uint64
	needN int // set bits across need
}

// NewMatchSets wraps per-source, per-day taxi bitsets (each sets[i] is
// indexed by day and has exactly days entries). The slices are retained,
// not copied.
func NewMatchSets(days int, sets [][][]uint64) *MatchSets {
	dw := bitset.Words(days)
	s := &MatchSets{days: days, dw: dw, sets: sets, need: make([][]uint64, len(sets)), byTaxi: make([][]uint64, len(sets))}
	for _, byDay := range sets {
		for _, set := range byDay {
			for wi := len(set) - 1; wi >= 0; wi-- {
				if set[wi] != 0 {
					s.taxis = max(s.taxis, wi<<6+bits.Len64(set[wi]))
					break
				}
			}
		}
	}
	for i, byDay := range sets {
		need, byTaxi := bitset.New(days), make([]uint64, s.taxis*dw)
		for d, set := range byDay {
			bitset.ForEach(set, func(t int) {
				byTaxi[t*dw+d>>6] |= 1 << (uint(d) & 63)
				need.Add(d)
			})
		}
		s.need[i], s.byTaxi[i] = need, byTaxi
		s.needN += need.Count()
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
	// pend[i] holds the days source i still needs; left is the number of
	// set bits across pend.
	pend [][]uint64
	left int
}

func newMatchState(s *MatchSets) matchState {
	st := matchState{s: s, pend: make([][]uint64, len(s.need))}
	for i, n := range s.need {
		st.pend[i] = make([]uint64, len(n))
	}
	return st
}

// reset starts a new candidate: every matchable (source, day) is pending.
func (st *matchState) reset() {
	for i, n := range st.s.need {
		copy(st.pend[i], n)
	}
	st.left = st.s.needN
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

// matchDay folds in one day's taxi bitset of some decoded list or delta.
func (st *matchState) matchDay(d int, words []uint64) {
	if d >= st.s.days {
		return
	}
	w, bit := d>>6, uint64(1)<<(uint(d)&63)
	for i, p := range st.pend {
		if p[w]&bit != 0 && BitsIntersect(st.s.sets[i][d], words) {
			p[w] &^= bit
			st.left--
		}
	}
}

// matchDelta folds a pending delta entry's day map in.
func (st *matchState) matchDelta(days map[int][]uint64) {
	for d, words := range days {
		st.matchDay(d, words)
	}
}

// matchBlob folds one encoded time list in. A packed blob is matched in
// place and validated exactly as decodeTimeListBits validates it — a
// blob the decoder rejects returns the decoder's error, whether or not
// the damaged part was needed; a legacy blob is decoded. On error the
// state is undefined.
func (st *matchState) matchBlob(blob []byte) error {
	if isPackedBlob(blob) {
		return st.matchPacked(blob[2:])
	}
	tl, err := decodeTimeListBits(blob)
	if err != nil {
		return err
	}
	for j, d := range tl.Days {
		st.matchDay(int(d), tl.Bits[j])
	}
	return nil
}

// matchPacked folds a packed body in: an entry (d, t) clears day d of
// every source whose day mask for taxi t has it — one table lookup per
// source, no per-day framing. Days past the sets' range and taxis no
// source holds fall outside the tables and match nothing.
func (st *matchState) matchPacked(body []byte) error {
	if err := checkPacked(body); err != nil {
		return err
	}
	s := st.s
	dw, taxis := s.dw, s.taxis
	prev := -1
	for b := body; len(b) >= 3; b = b[3:] {
		e := int(b[0]) | int(b[1])<<8 | int(b[2])<<16
		if e <= prev {
			return errPackedOrder((len(body) - len(b)) / 3)
		}
		prev = e
		d, t := e>>15, e&(maxTaxis-1)
		if w := d >> 6; w < dw && t < taxis {
			bit := uint64(1) << (uint(d) & 63)
			for i, p := range st.pend {
				p[w] &^= s.byTaxi[i][t*dw+w] & bit
			}
		}
	}
	left := 0
	for _, p := range st.pend {
		for _, v := range p {
			left += bits.OnesCount64(v)
		}
	}
	st.left = left
	return nil
}

// Matcher runs matches for one verification worker. It owns a
// page-memoising blob reader and the per-candidate day masks, so a match
// over packed lists allocates nothing. Not safe for concurrent use; create one per
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
	for slot := loSlot; slot <= hiSlot && m.left > 0; slot++ {
		if err := m.matchKey(seg, slot); err != nil {
			return 0, err
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

// matchKey folds in the time list of (seg, slot): its base blob, walked
// in place, and its pending delta, if it has one.
//
// A clean key — nearly every key, even under live ingest — costs two
// atomic loads and no lock, and the order of those loads is the whole
// correctness argument: the key's dirty bit first, the handle table
// after it. Dirty bits are written only under the delta lock. An append
// sets the key's bit when it creates the key's entry; a compaction
// clears it when it deletes the entry, and only after storing the table
// that folds it. So a clear bit is either one no append has set — there
// is no delta to miss — or a clear this load observed, which happened
// after that table's store: the table loaded next is that one or a later
// one, and it holds the fold. Loaded the other way round, a compaction
// could store and clear between the two loads, and the read would see
// neither the folded observations nor their delta.
//
// A dirty key takes the read lock after its base walk, to re-check the
// handle — a compaction that swapped the table in between may already
// have cleared the delta it folded, so the key is walked again on the new
// table — and to intersect the delta entry where it lies instead of
// merging it into a copy. What a superseded base matched stays matched:
// a fold only ever adds to a key's base.
func (m *Matcher) matchKey(seg roadnet.SegmentID, slot int) error {
	lv := m.x.live
	for {
		dirty := lv.isDirty(slot, int(seg))
		h := m.handles().at(slot, int(seg))
		if !h.IsZero() {
			if err := m.matchHandle(h, seg, slot); err != nil {
				return err
			}
		}
		if !dirty || m.left == 0 {
			return nil
		}
		lv.mu.RLock()
		if lv.handles.Load().at(slot, int(seg)) != h {
			lv.mu.RUnlock()
			continue
		}
		if e := lv.entries[slot*m.x.net.NumSegments()+int(seg)]; e != nil {
			m.lists++
			m.matchDelta(e.days)
		}
		lv.mu.RUnlock()
		return nil
	}
}
