// Package wellformed implements the well-formed-lattice check of Section
// 4.3. Because Cable labels traces only en masse through concepts, a
// lattice can make a desired labeling unreachable; such lattices are not
// well-formed for the labeling, and every labeling strategy fails on them.
//
// A concept c is well-formed for a labeling iff
//
//  1. the labeling gives the same label to every trace in c, or
//  2. every child of c is well-formed, and every trace of c that is not in
//     a child of c gets the same label.
//
// A lattice is well-formed iff all of its concepts are. The classic
// counterexample (an FA accepting foo* when only even counts of foo are
// correct) lives in this package's tests.
package wellformed

import (
	"repro/internal/bitset"
	"repro/internal/concept"
)

// Check reports whether the lattice is well-formed for the labeling, and
// returns the IDs of the concepts that are not well-formed (empty when
// well-formed). labels[i] is the desired label of object i; labels are
// compared with ==, so the caller picks the label type (cable.Label for a
// session's labels).
func Check[L comparable](l *concept.Lattice, labels []L) (ok bool, badConcepts []int) {
	memo := make([]int8, l.Len()) // 0 unknown, 1 ok, 2 bad
	var rec func(id int) bool
	rec = func(id int) bool {
		switch memo[id] {
		case 1:
			return true
		case 2:
			return false
		}
		c := l.Concept(id)
		if uniform(c.Extent, labels) {
			memo[id] = 1
			return true
		}
		good := true
		for _, ch := range l.Children(id) {
			if !rec(ch) {
				good = false
			}
		}
		if good {
			proper := properTraces(l, id)
			if !uniform(proper, labels) {
				good = false
			}
		}
		if good {
			memo[id] = 1
		} else {
			memo[id] = 2
		}
		return good
	}
	for _, c := range l.Concepts() {
		rec(c.ID)
	}
	for id, m := range memo {
		if m == 2 {
			badConcepts = append(badConcepts, id)
		}
	}
	return len(badConcepts) == 0, badConcepts
}

// properTraces returns the objects of a concept that belong to none of its
// children.
func properTraces(l *concept.Lattice, id int) *bitset.Set {
	proper := l.Concept(id).Extent.Clone()
	for _, ch := range l.Children(id) {
		proper.DifferenceWith(l.Concept(ch).Extent)
	}
	return proper
}

// uniform reports whether all objects of the set carry the same label; the
// empty set is uniform.
func uniform[L comparable](x *bitset.Set, labels []L) bool {
	var first L
	seen := false
	ok := true
	x.Range(func(o int) bool {
		if !seen {
			first, seen = labels[o], true
			return true
		}
		if labels[o] != first {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// MixedConcepts returns, for a non-well-formed lattice, the minimal bad
// concepts: bad concepts none of whose children are bad. These are the
// concepts the user would mark "mixed" and re-cluster with a different FA
// in a Focus session.
func MixedConcepts[L comparable](l *concept.Lattice, labels []L) []int {
	_, bad := Check(l, labels)
	badSet := map[int]bool{}
	for _, id := range bad {
		badSet[id] = true
	}
	var minimal []int
	for _, id := range bad {
		hasBadChild := false
		for _, ch := range l.Children(id) {
			if badSet[ch] {
				hasBadChild = true
				break
			}
		}
		if !hasBadChild {
			minimal = append(minimal, id)
		}
	}
	return minimal
}
