// Package bitset holds the word-level bit-vector helpers shared by the
// ST-Index time-list encoding (per-day taxi bitsets) and the Con-Index /
// query-core bounding phase (per-slot segment bitsets). Everything
// operates on raw []uint64 so callers can embed the words in their own
// cache entries and on-disk blobs without conversion.
package bitset

import "math/bits"

// Words returns how many uint64 words hold n bits.
func Words(n int) int { return (n + 63) / 64 }

// Set is a fixed-capacity dense bitset: bit i lives in word i/64.
type Set []uint64

// New returns a zeroed Set with capacity for n bits.
func New(n int) Set { return make(Set, Words(n)) }

// Has reports whether bit i is set.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Add sets bit i.
func (s Set) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear zeroes every word.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Or folds src into dst word-by-word. src must not be longer than dst.
func Or(dst Set, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// OrGrow folds src into dst, growing dst as needed, and returns dst.
// Used where the two operands are sized independently (per-day taxi
// bitsets trimmed to their highest ID).
func OrGrow(dst, src []uint64) []uint64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, w := range src {
		dst[i] |= w
	}
	return dst
}

// AndCount returns the number of bits set in both a and b. Words beyond
// the shorter operand are implicitly zero.
func AndCount(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// Intersects reports whether two bitsets share a set bit. Words beyond
// the shorter operand are implicitly zero.
func Intersects(a, b []uint64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn with the index of every set bit, ascending.
func ForEach(words []uint64, fn func(i int)) {
	for wi, w := range words {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// ForEachDiff calls fn with every bit set in a but not in b, ascending.
// b may be shorter than a; its missing words are implicitly zero.
func ForEachDiff(a, b []uint64, fn func(i int)) {
	for wi, w := range a {
		if wi < len(b) {
			w &^= b[wi]
		}
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
