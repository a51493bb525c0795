package concept

import "repro/internal/bitset"

// Clone returns an independent deep copy of the lattice, including its
// context, backed by a fresh arena whose first slab is sized to the words
// it copies, and with its concept headers in one slab that the headers of
// later adds double. cable.Session.DetachLattice clones a lattice that
// its caller still uses before the session's first add mutates it. Clone
// only reads l, so it may run while other goroutines query l.
func (l *Lattice) Clone() *Lattice {
	words := 0
	for _, c := range l.concepts {
		words += c.Extent.StorageWords() + c.Intent.StorageWords()
	}
	arena := bitset.NewArenaFor(words, 2*len(l.concepts))
	nl := &Lattice{
		ctx:    l.ctx.clone(),
		top:    l.top,
		bottom: l.bottom,
		arena:  arena,
		// reps/inv stay nil for lazy rebuild.
	}
	headers := make([]Concept, len(l.concepts))
	nl.concepts = make([]*Concept, len(l.concepts))
	for i, c := range l.concepts {
		h := &headers[i]
		*h = Concept{ID: c.ID, Extent: arena.Clone(c.Extent), Intent: arena.Clone(c.Intent)}
		nl.concepts[i] = h
	}
	nl.hdr = headers // full: the next concept takes a fresh chunk
	nl.parents = cloneIntTable(l.parents)
	nl.children = cloneIntTable(l.children)
	nl.idx = l.idx.clone()
	nl.objConcept = append([]int(nil), l.objConcept...)
	nl.attrConcept = append([]int(nil), l.attrConcept...)
	return nl
}

// cloneIntTable deep-copies a cover-edge table into one slab, preserving
// the nil/non-nil distinction of each row.
func cloneIntTable(t [][]int) [][]int {
	out := make([][]int, len(t))
	total := 0
	for _, xs := range t {
		total += len(xs)
	}
	slab := make([]int, 0, total)
	for i, xs := range t {
		if xs == nil {
			continue
		}
		start := len(slab)
		slab = append(slab, xs...)
		out[i] = slab[start:len(slab):len(slab)]
	}
	return out
}
