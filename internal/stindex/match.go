package stindex

import (
	"encoding/binary"
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
// mask, keeping only a day mask per source as state.

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
		if p[w]&bit != 0 && bitset.Intersects(st.s.sets[i][d], words) {
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

// matchBlob folds one encoded time list in, matched in place and
// validated exactly as decodeTimeListBits validates it: a blob the
// decoder rejects returns the decoder's error, whether or not the
// damaged part was needed. On error the state is undefined.
func (st *matchState) matchBlob(blob []byte) error {
	if !isPackedBlob(blob) {
		return errNotPacked(blob)
	}
	return st.matchPacked(blob[2:])
}

// matchPacked folds a packed body in: an entry (d, t) clears day d of
// every source whose day mask for taxi t has it, with no per-day
// framing. Days past the sets' range and taxis no source holds fall
// outside the tables and match nothing.
//
// When a day mask is one word (days ≤ 64: the paper's 30-day window),
// each source walks the body on its own with its pending days in a
// register, so an entry costs one lookup and an AND-NOT (matchWord).
// The first source's walk always runs, and checks the order; a later
// source with nothing pending skips its walk. (A set without sources
// needs no day, so Match walks no blob for it.) Wider masks take
// matchPackedWide.
func (st *matchState) matchPacked(body []byte) error {
	if err := checkPacked(body); err != nil {
		return err
	}
	s := st.s
	if s.dw != 1 {
		return st.matchPackedWide(body)
	}
	left := 0
	for i, p := range st.pend {
		if i == 0 || p[0] != 0 {
			w, err := matchWord(body, s.byTaxi[i], p[0])
			if err != nil {
				return err
			}
			p[0] = w
		}
		left += bits.OnesCount64(p[0])
	}
	st.left = left
	return nil
}

// matchWord walks a packed body of whole entries for one source whose
// pending days all lie in one word: byTaxi[t] is the source's day mask
// for taxi t, and the days of pend still unmatched are returned. An
// entry out of order fails with the decoder's error.
//
// The main loop takes two entries from one 8-byte load while both
// ascend and fall on days below 64; the tail loop takes the rest one at
// a time and settles whatever the main loop left, errors included. A
// day past 63 shifts its bit out there (a too-wide shift is zero in
// Go), so it matches nothing, as it must: no source needs it.
func matchWord(body []byte, byTaxi []uint64, pend uint64) (uint64, error) {
	prev := -1
	b := body
	for ; len(b) >= 8; b = b[6:] {
		w := binary.LittleEndian.Uint64(b)
		e0, e1 := int(w&(1<<24-1)), int(w>>24&(1<<24-1))
		if e0 <= prev || e1 <= e0 || e1 >= 64<<15 {
			break
		}
		prev = e1
		if t := e0 & (maxTaxis - 1); t < len(byTaxi) {
			pend &^= byTaxi[t] & (1 << (uint(e0>>15) & 63))
		}
		if t := e1 & (maxTaxis - 1); t < len(byTaxi) {
			pend &^= byTaxi[t] & (1 << (uint(e1>>15) & 63))
		}
	}
	for ; len(b) >= 3; b = b[3:] {
		e := int(b[0]) | int(b[1])<<8 | int(b[2])<<16
		if e <= prev {
			return 0, errPackedOrder((len(body) - len(b)) / 3)
		}
		prev = e
		if t := e & (maxTaxis - 1); t < len(byTaxi) {
			pend &^= byTaxi[t] & (1 << uint(e>>15))
		}
	}
	return pend, nil
}

// matchPackedWide is matchPacked for day masks over more than one word:
// one walk, each entry settled for every source in turn in memory.
func (st *matchState) matchPackedWide(body []byte) error {
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
	matchState
	tableReader
	lists int64
}

// tableReader reads blobs of x through a page-memoising BlobReader whose
// memo belongs to one installed handle table. A compaction appends blobs
// and then installs a new table; a page memoised before that may predate
// those blobs, so the memo is dropped whenever the installed table is no
// longer the one it was filled under.
type tableReader struct {
	x      *Index
	reader *storage.BlobReader
	table  *handleTable
}

func (x *Index) newTableReader() tableReader {
	return tableReader{x: x, reader: x.blob.NewReader()}
}

// handles returns the installed handle table, dropping the page memo
// when it is not the table the memo was filled under.
func (r *tableReader) handles() handleTable {
	t := r.x.live.handles.Load()
	if t != r.table {
		r.reader.Reset()
		r.table = t
	}
	return *t
}

// NewMatcher returns a matcher reading candidate time lists from x (a
// shard's slice during scatter verification) against the shared sets.
func (x *Index) NewMatcher(s *MatchSets) *Matcher {
	return &Matcher{matchState: newMatchState(s), tableReader: x.newTableReader()}
}

// SlotTraffic returns, per segment, the number of distinct days with an
// entry in the segment's merged time list (base ∪ pending delta) at slot
// — the traffic query origins are ranked by. It runs a Matcher with a
// probe that every taxi matches on every day, so it reads under the same
// lock discipline as verification (DESIGN.md §13.1) and never touches
// the decoded-list cache. A slot outside the day counts nothing.
func (x *Index) SlotTraffic(slot int) ([]int, error) {
	m := x.NewMatcher(anyTaxiSets(x.days))
	out := make([]int, x.net.NumSegments())
	for seg := range out {
		n, err := m.Match(roadnet.SegmentID(seg), slot, slot)
		if err != nil {
			return nil, err
		}
		out[seg] = n
	}
	return out, nil
}

// anyTaxiSets is one source holding every taxi on every day, built
// directly: NewMatchSets would visit all 2^15 taxi bits of every day.
func anyTaxiSets(days int) *MatchSets {
	dw := bitset.Words(days)
	allDays := bitset.New(days)
	for d := range days {
		allDays.Add(d)
	}
	// Every taxi's mask is allDays: copy it, then double what is filled.
	byTaxi := make([]uint64, maxTaxis*dw)
	for n := copy(byTaxi, allDays); n < len(byTaxi); n *= 2 {
		copy(byTaxi[n:], byTaxi[:n])
	}
	allTaxis := make([]uint64, bitset.Words(maxTaxis))
	for w := range allTaxis {
		allTaxis[w] = ^uint64(0)
	}
	byDay := make([][]uint64, days)
	for d := range byDay {
		byDay[d] = allTaxis
	}
	return &MatchSets{days: days, dw: dw, sets: [][][]uint64{byDay}, byTaxi: [][]uint64{byTaxi},
		taxis: maxTaxis, need: [][]uint64{allDays}, needN: days}
}

// Lists reports how many non-empty time lists (base blobs and pending
// delta entries) the matcher has walked so far.
func (m *Matcher) Lists() int64 { return m.lists }

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
