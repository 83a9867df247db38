// Package bitset implements a dense fixed-size bitset used by the clique
// enumerator, and the sparse row the (k,r)-core search engine and the
// colour bound store a component's adjacency and dissimilarity in.
package bitset

import "math/bits"

// Entry is one nonzero word of a sparse row: bits W of word I, which
// holds the members 64I to 64I+63. A sparse row is a []Entry listing
// its nonzero words by ascending I, the container idea of Roaring
// bitmaps: ANDing it with a dense bitset of the same universe visits
// only those words, and a walk over its bits visits its members in
// ascending order.
type Entry struct {
	W uint64
	I int32
}

// Set is a fixed-capacity bitset. Create one with New; the zero value is
// an empty set with zero capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set able to hold bits 0..n-1, all clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the set (number of addressable bits).
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// CopyFrom overwrites s with the contents of t. The sets must have the
// same capacity.
func (s *Set) CopyFrom(t *Set) {
	copy(s.words, t.words)
}

// And sets s = s ∩ t.
func (s *Set) And(t *Set) {
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// AndNot sets s = s \ t.
func (s *Set) AndNot(t *Set) {
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Or sets s = s ∪ t.
func (s *Set) Or(t *Set) {
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// IntersectionCount returns |s ∩ t| without materialising it.
func (s *Set) IntersectionCount(t *Set) int {
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// ForEach calls fn for every set bit in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// Members appends the set bits in ascending order to dst and returns it.
func (s *Set) Members(dst []int32) []int32 {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, int32(wi<<6+b))
			w &= w - 1
		}
	}
	return dst
}

// First returns the smallest set bit, or -1 if the set is empty.
func (s *Set) First() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}
