package bitset

import "sync/atomic"

// Arena is a slab allocator for batch-building many sets with O(1)
// allocations. A lattice build creates tens of thousands of small intent
// and extent bitsets whose lifetimes all end together (when the lattice is
// dropped); backing them with per-set make calls costs one heap object —
// and eventually one free — per set. An Arena instead carves word storage
// and Set headers out of geometrically grown slabs, so the garbage
// collector sees a handful of large objects.
//
// Ownership: everything an Arena hands out is referenced by the arena's
// slabs, so arena-backed sets keep the whole slab alive and must not
// outlive the structure the arena was created for (the cablevet poolarena
// check enforces this for lattice builds). Arenas are not safe for
// concurrent allocation; allocate from one goroutine, share the resulting
// read-only sets freely.
type Arena struct {
	words []uint64 // current word slab; len is the high-water mark
	sets  []Set    // current Set-header slab
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewArenaFor returns an empty arena whose first word slab holds words
// words and whose first header slab holds sets headers, each capped at the
// sizes an arena from NewArena starts with. A builder that knows about how
// much it will carve sizes its arena this way, so a small lattice does not
// pin a 32 KiB slab for a few hundred bytes of sets. Each later slab
// doubles the one before it, up to the sizes NewArena's slabs grow to, so
// a build that outgrows its guess does not jump to a 32 KiB slab either.
func NewArenaFor(words, sets int) *Arena {
	a := &Arena{}
	if words > 0 {
		a.words = make([]uint64, 0, min(words, arenaMinWords))
	}
	if sets > 0 {
		a.sets = make([]Set, 0, min(sets, arenaSetChunk))
	}
	return a
}

const (
	arenaMinWords = 1 << 12 // 32 KiB: NewArena's first slab
	arenaMaxWords = 1 << 20 // slab growth cap: 8 MiB per slab
	arenaSetChunk = 256     // Set headers per header slab, at most
)

// nextSlab returns the size of the slab after one of size prev: first when
// there is none yet, else double prev, capped at most.
func nextSlab(prev, first, most int) int {
	if prev == 0 {
		return first
	}
	return min(2*prev, most)
}

// allocWords returns a zeroed n-word slice carved from the slab. The result
// is capacity-clamped so append on one set can never scribble over its slab
// neighbour: growing past n reallocates onto the heap instead.
func (a *Arena) allocWords(n int) []uint64 {
	if n == 0 {
		return nil
	}
	if len(a.words)+n > cap(a.words) {
		size := max(nextSlab(cap(a.words), arenaMinWords, arenaMaxWords), n)
		// The old slab stays alive through the sets already carved from it.
		a.words = make([]uint64, 0, size)
	}
	w := a.words[len(a.words) : len(a.words)+n : len(a.words)+n]
	a.words = a.words[:len(a.words)+n]
	return w
}

// Set returns a fresh empty set whose words live in the arena. lenBits is
// the initial universe size covered by zeroed words; capBits reserves
// capacity so the set can grow to that universe (via Add/ensure) without
// leaving the arena. capBits is clamped up to lenBits.
func (a *Arena) Set(lenBits, capBits int) *Set {
	if capBits < lenBits {
		capBits = lenBits
	}
	nw := (lenBits + wordBits - 1) / wordBits
	cw := (capBits + wordBits - 1) / wordBits
	s := a.header()
	if cw > 0 {
		s.words = a.allocWords(cw)[:nw]
	}
	return s
}

// Clone returns an arena-backed copy of src. The copy's capacity equals
// src's length; callers that will grow the clone should copy into an
// a.Set(..., capBits) instead.
func (a *Arena) Clone(src *Set) *Set {
	s := a.header()
	if len(src.words) > 0 {
		s.words = a.allocWords(len(src.words))
		copy(s.words, src.words)
	}
	s.pop = atomic.LoadInt32(&src.pop) // Len may be storing it concurrently
	return s
}

// EnsureBits grows s so its words cover the universe [0, capBits) without
// leaving the arena. Growth extends in place when the set's carve has
// capacity (zeroing the exposed words, which may hold stale data from an
// earlier truncation); otherwise it carves a fresh region of at least
// twice the old capacity and copies — the old words stay pinned in their
// slab, the accepted cost of incremental updates on arena-backed lattices.
// Doubling keeps that cost a constant factor of the set's final words: a
// set gaining one element at a time re-carves O(log n) times, not once
// per word.
func (a *Arena) EnsureBits(s *Set, capBits int) {
	cw := (capBits + wordBits - 1) / wordBits
	if cw <= len(s.words) {
		return
	}
	if cw <= cap(s.words) {
		n := len(s.words)
		s.words = s.words[:cw]
		for i := n; i < cw; i++ {
			s.words[i] = 0
		}
		return
	}
	grown := a.allocWords(max(cw, 2*cap(s.words)))[:cw]
	copy(grown, s.words)
	s.words = grown
}

// header carves one Set header out of the header slab.
func (a *Arena) header() *Set {
	if len(a.sets) == cap(a.sets) {
		a.sets = make([]Set, 0, nextSlab(cap(a.sets), arenaSetChunk, arenaSetChunk))
	}
	a.sets = a.sets[:len(a.sets)+1]
	return &a.sets[len(a.sets)-1]
}
