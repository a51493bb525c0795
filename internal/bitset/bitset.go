// Package bitset provides dense, growable bit vectors.
//
// Bitsets are the workhorse representation throughout this repository:
// concept extents and intents (internal/concept), subset-construction state
// sets (internal/fa), and labeled-trace sets in strategy search
// (internal/strategy) are all bitsets. The implementation is a plain slice
// of 64-bit words; the zero value is an empty set ready to use.
//
// Hot-path kernels follow two rules: they are word-parallel (never
// per-element loops) and they bail out as early as the answer is known —
// SubsetOf, Equal, and Intersects return on the first mismatching word.
// Len caches its popcount so repeated size queries on immutable sets (the
// shape concept lattices produce) cost one atomic load; every mutator
// invalidates the cache. For batch construction, Table cuts a fixed number
// of equal-width sets (a context's rows or columns) from one exact-size
// slab, and Arena (arena.go) carves many sets of any width out of shared
// slabs, so building a context or a lattice performs O(1) allocations
// instead of one or two per set. NewArenaFor sizes an arena's first slab
// to the build, so a small lattice pins a small slab.
package bitset

import (
	"encoding/binary"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
)

const wordBits = 64

// Set is a set of non-negative integers backed by a []uint64.
// The zero value is an empty set.
type Set struct {
	words []uint64
	// pop caches Len()+1; 0 means unknown. Len loads and stores it
	// atomically so concurrent readers of an immutable set are safe;
	// mutators reset it with a plain store (mutation concurrent with any
	// reader is already a race on words).
	pop int32
}

// New returns an empty set with capacity preallocated for elements in
// [0, n). The capacity hint only avoids reallocation; sets grow on demand.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Table returns n empty sets whose words cover [0, bits), all cut from one
// exact-size word slab: two allocations for the table instead of two per
// set. Each set's words are capacity-clamped, so growing one past bits
// moves that set onto the heap instead of writing over its neighbour.
func Table(n, bits int) []Set {
	sets := make([]Set, n)
	nw := (bits + wordBits - 1) / wordBits
	if nw == 0 {
		return sets
	}
	slab := make([]uint64, n*nw)
	for i := range sets {
		sets[i].words = slab[i*nw : (i+1)*nw : (i+1)*nw]
	}
	return sets
}

// FromSlice returns a set containing exactly the given elements.
func FromSlice(elems []int) *Set {
	s := &Set{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Full returns the set {0, 1, ..., n-1}. It fills whole words at a time,
// replacing the O(n) Add loop callers previously used to build universe
// sets.
func Full(n int) *Set {
	if n <= 0 {
		return &Set{}
	}
	words := make([]uint64, (n+wordBits-1)/wordBits)
	for i := range words {
		words[i] = ^uint64(0)
	}
	if r := n % wordBits; r != 0 {
		words[len(words)-1] = (1 << uint(r)) - 1
	}
	return &Set{words: words, pop: int32(n) + 1}
}

// FillFull makes s equal to {0, ..., n-1}, reusing s's storage when it is
// large enough. It returns s.
func (s *Set) FillFull(n int) *Set {
	if n <= 0 {
		s.words = s.words[:0]
		s.pop = 1
		return s
	}
	nw := (n + wordBits - 1) / wordBits
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	} else {
		s.words = s.words[:nw]
	}
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if r := n % wordBits; r != 0 {
		s.words[nw-1] = (1 << uint(r)) - 1
	}
	s.pop = int32(n) + 1
	return s
}

// IntersectInto sets dst = a ∩ b, reusing dst's storage, and returns dst.
// dst may alias a or b. It is the allocation-free form of Intersect for hot
// loops that recompute intersections into a scratch set.
func IntersectInto(dst, a, b *Set) *Set {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	if cap(dst.words) < n {
		dst.words = make([]uint64, n)
	} else {
		dst.words = dst.words[:n]
	}
	for i := 0; i < n; i++ {
		dst.words[i] = a.words[i] & b.words[i]
	}
	dst.pop = 0
	return dst
}

// IntersectEqualsInto sets dst = a ∩ b, reusing dst's storage, and reports
// whether the intersection equals a — that is, whether a ⊆ b. It fuses the
// SubsetOf + IntersectInto double pass the lattice builder's inner loop
// used to make: one word-parallel sweep produces both the intersection and
// the subset verdict. dst must not alias a or b.
func IntersectEqualsInto(dst, a, b *Set) bool {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	if cap(dst.words) < n {
		dst.words = make([]uint64, n)
	} else {
		dst.words = dst.words[:n]
	}
	var diff uint64
	for i := 0; i < n; i++ {
		w := a.words[i] & b.words[i]
		diff |= w ^ a.words[i]
		dst.words[i] = w
	}
	for _, w := range a.words[n:] {
		diff |= w
	}
	dst.pop = 0
	return diff == 0
}

// CopyFrom makes s an exact copy of t, reusing s's storage when it is large
// enough, and returns s. It is the allocation-free form of Clone for hot
// loops that reset a scratch set to a known frontier.
func (s *Set) CopyFrom(t *Set) *Set {
	if cap(s.words) < len(t.words) {
		s.words = make([]uint64, len(t.words))
	} else {
		s.words = s.words[:len(t.words)]
	}
	copy(s.words, t.words)
	s.pop = atomic.LoadInt32(&t.pop)
	return s
}

// ensure grows s.words to cover the given word index. Growth first extends
// in place when capacity allows (zeroing the exposed words, which may hold
// stale data from an earlier truncation), then reallocates geometrically so
// a set grown one word at a time costs O(log n) allocations, not O(n).
func (s *Set) ensure(word int) {
	if word < len(s.words) {
		return
	}
	if word < cap(s.words) {
		n := len(s.words)
		s.words = s.words[:word+1]
		for i := n; i <= word; i++ {
			s.words[i] = 0
		}
		return
	}
	newCap := 2 * cap(s.words)
	if newCap < word+1 {
		newCap = word + 1
	}
	grown := make([]uint64, word+1, newCap)
	copy(grown, s.words)
	s.words = grown
}

// Add inserts i into the set. Negative i panics.
func (s *Set) Add(i int) {
	if i < 0 {
		panic("bitset: negative element " + strconv.Itoa(i))
	}
	w := i / wordBits
	s.ensure(w)
	s.words[w] |= 1 << uint(i%wordBits)
	s.pop = 0
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(i%wordBits)) != 0
}

// Len returns the number of elements in the set. The popcount is cached:
// the first call on a set that has not been mutated since stores the
// count, and later calls return it with one atomic load. Concurrent Len
// calls on a shared immutable set are safe.
func (s *Set) Len() int {
	if p := atomic.LoadInt32(&s.pop); p != 0 {
		return int(p) - 1
	}
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	atomic.StoreInt32(&s.pop, int32(n)+1)
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// StorageWords returns the number of words s stores, trailing zero words
// included: what Clone and Arena.Clone copy.
func (s *Set) StorageWords() int { return len(s.words) }

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	c.pop = atomic.LoadInt32(&s.pop)
	return c
}

// Clear removes all elements, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.pop = 1
}

// UnionWith adds every element of t to s.
func (s *Set) UnionWith(t *Set) {
	s.ensure(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] |= w
	}
	s.pop = 0
}

// IntersectWith removes from s every element not in t.
func (s *Set) IntersectWith(t *Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
	s.pop = 0
}

// DifferenceWith removes every element of t from s.
func (s *Set) DifferenceWith(t *Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &^= t.words[i]
		}
	}
	s.pop = 0
}

// Union returns a new set holding s ∪ t.
func Union(s, t *Set) *Set {
	u := s.Clone()
	u.UnionWith(t)
	return u
}

// Intersect returns a new set holding s ∩ t.
func Intersect(s, t *Set) *Set {
	u := s.Clone()
	u.IntersectWith(t)
	return u
}

// Equal reports whether s and t contain the same elements. It returns on
// the first mismatching word.
func (s *Set) Equal(t *Set) bool {
	long, short := s.words, t.words
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t. It returns on the
// first word holding an element of s missing from t.
func (s *Set) SubsetOf(t *Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one element.
func (s *Set) Intersects(t *Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Elems returns the elements in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Len())
	s.Range(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Words returns the set's backing words with trailing zero words trimmed.
// The slice aliases the set's storage and must be treated as read-only; it
// is the raw view the lattice dump writes and Key renders. Structurally
// equal sets return equal word slices.
func (s *Set) Words() []uint64 {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	return s.words[:n]
}

// Range calls f on each element in increasing order; if f returns false the
// iteration stops early.
func (s *Set) Range(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Key returns a string usable as a map key identifying the set's contents:
// the little-endian bytes of its trimmed words. Structurally equal sets
// produce equal keys.
func (s *Set) Key() string {
	ws := s.Words()
	buf := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return string(buf)
}

// Hash returns a structural 64-bit hash of the set: equal sets hash
// equally regardless of trailing zero words or construction history. It is
// the word-level replacement for hashing Key bytes — hot paths hash
// the words directly and skip materializing key bytes entirely.
func (s *Set) Hash() uint64 {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	h := uint64(14695981039346656037) // FNV-1a over words
	for _, w := range s.words[:n] {
		h ^= w
		h *= 1099511628211
	}
	// Final avalanche so power-of-two table masks see the high entropy.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// HashWord returns Hash() of the set whose only word is w — the empty set
// when w is 0. It is the scalar fast path for universes of at most 64
// elements (concept intents over specs with ≤64 transitions): callers that
// intersect one-word sets in registers can probe hash tables without
// materializing a Set at all. Pinned equal to Hash by TestHashWordMatchesHash.
func HashWord(w uint64) uint64 {
	h := uint64(14695981039346656037) // FNV-1a over the single word
	if w != 0 {
		h ^= w
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.Range(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
