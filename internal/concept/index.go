package concept

import (
	"repro/internal/bitset"
)

// intentIndex maps closed intents to concept IDs. It replaces the
// map[string]int over Set.Key() bytes the builder used before: lookups hash
// the intent's words directly (bitset.Hash), so the hot paths — the Godin
// inner loop and every linkCovers closure probe — materialize no key bytes
// at all. The table is open-addressing with linear probing over a
// power-of-two slot array; slots hold id+1 with 0 meaning empty, and
// collisions fall back to a word-level Equal against the stored concept's
// intent.
//
// Writes (insert, grow) must come from one goroutine; once the builder is
// done the table is read-only and lookup is safe to call concurrently,
// which is what lets concurrent queries (Find, Meet, Join) share it.
type intentIndex struct {
	ids  []int32 // concept ID + 1; 0 = empty slot
	mask uint64
	n    int
}

// initFor sizes the table for about hint entries.
func (ix *intentIndex) initFor(hint int) {
	size := 16
	for size*3 < hint*4 { // target load factor 0.75
		size *= 2
	}
	ix.ids = make([]int32, size)
	ix.mask = uint64(size - 1)
	ix.n = 0
}

// lookup returns the ID of the concept whose intent equals s, or -1.
func (ix *intentIndex) lookup(concepts []*Concept, s *bitset.Set) int {
	if len(ix.ids) == 0 {
		return -1
	}
	i := s.Hash() & ix.mask
	for {
		slot := ix.ids[i]
		if slot == 0 {
			return -1
		}
		if id := int(slot - 1); concepts[id].Intent.Equal(s) {
			return id
		}
		i = (i + 1) & ix.mask
	}
}

// lookupWord is lookup specialized for one-word attribute universes: w is
// the single backing word of the probe intent (0 = the empty intent) and
// intentWords the flat per-concept table of intent words. bitset.HashWord
// matches Set.Hash for one-word content (pinned by TestHashWordMatchesHash),
// so the probe sequence is identical to lookup's while the collision
// comparison is one word compare instead of a Set walk.
func (ix *intentIndex) lookupWord(intentWords []uint64, w uint64) int {
	if len(ix.ids) == 0 {
		return -1
	}
	i := bitset.HashWord(w) & ix.mask
	for {
		slot := ix.ids[i]
		if slot == 0 {
			return -1
		}
		if id := int(slot - 1); intentWords[id] == w {
			return id
		}
		i = (i + 1) & ix.mask
	}
}

// insert records concepts[id] under its intent's hash. The intent must not
// already be present.
func (ix *intentIndex) insert(concepts []*Concept, id int) {
	if len(ix.ids) == 0 {
		ix.initFor(16)
	}
	if (ix.n+1)*4 > len(ix.ids)*3 {
		ix.grow(concepts)
	}
	ix.place(concepts[id].Intent.Hash(), int32(id+1))
	ix.n++
}

func (ix *intentIndex) place(h uint64, slot int32) {
	i := h & ix.mask
	for ix.ids[i] != 0 {
		i = (i + 1) & ix.mask
	}
	ix.ids[i] = slot
}

// clone returns an independent copy of the index (same hashes, same slots).
func (ix *intentIndex) clone() intentIndex {
	return intentIndex{ids: append([]int32(nil), ix.ids...), mask: ix.mask, n: ix.n}
}

// grow doubles the slot array and rehashes from the concepts' intents.
func (ix *intentIndex) grow(concepts []*Concept) {
	old := ix.ids
	ix.ids = make([]int32, 2*len(old))
	ix.mask = uint64(len(ix.ids) - 1)
	for _, slot := range old {
		if slot != 0 {
			ix.place(concepts[slot-1].Intent.Hash(), slot)
		}
	}
}
