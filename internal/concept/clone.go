package concept

import "repro/internal/bitset"

// Clone returns an independent deep copy of the lattice, including its
// context, backed by a fresh arena. Sessions that mutate a cached lattice
// clone it first (copy-on-write), so the cache keeps serving the original
// to later uploads of the same corpus.
func (l *Lattice) Clone() *Lattice {
	arena := bitset.NewArena()
	nl := &Lattice{
		ctx:    l.ctx.clone(),
		top:    l.top,
		bottom: l.bottom,
		arena:  arena,
		// reps/repRows/inv stay nil for lazy rebuild.
	}
	headers := make([]Concept, len(l.concepts))
	nl.concepts = make([]*Concept, len(l.concepts))
	for i, c := range l.concepts {
		h := &headers[i]
		*h = Concept{ID: c.ID, Extent: arena.Clone(c.Extent), Intent: arena.Clone(c.Intent)}
		nl.concepts[i] = h
	}
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
