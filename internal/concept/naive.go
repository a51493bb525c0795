package concept

import (
	"repro/internal/bitset"
)

// BuildNaive constructs the concept lattice by closure enumeration: the set
// of intents is the closure of {all attributes} under intersection with
// object rows, and each extent is recovered as τ(intent). It is an
// independent implementation used as an oracle in property tests and as the
// baseline in the lattice-construction ablation bench; Build is the
// incremental construction used everywhere else.
func BuildNaive(ctx *Context) *Lattice {
	l := &Lattice{ctx: ctx}
	allAttrs := bitset.Full(ctx.NumAttributes())
	intents := map[string]*bitset.Set{allAttrs.Key(): allAttrs}
	worklist := []*bitset.Set{allAttrs}
	for len(worklist) > 0 {
		y := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		for o := 0; o < ctx.NumObjects(); o++ {
			inter := bitset.Intersect(y, ctx.Attributes(o))
			key := inter.Key()
			if _, ok := intents[key]; !ok {
				intents[key] = inter
				worklist = append(worklist, inter)
			}
		}
	}
	// Deterministic concept order: by intent size descending, then key.
	keys := make([]string, 0, len(intents))
	for k := range intents {
		keys = append(keys, k)
	}
	sortKeysBySize(keys, intents)
	for _, k := range keys {
		intent := intents[k]
		c := &Concept{ID: len(l.concepts), Extent: ctx.Tau(intent), Intent: intent}
		l.concepts = append(l.concepts, c)
	}
	l.finalize()
	return l
}

func sortKeysBySize(keys []string, intents map[string]*bitset.Set) {
	less := func(a, b string) bool {
		la, lb := intents[a].Len(), intents[b].Len()
		if la != lb {
			return la > lb
		}
		return a < b
	}
	// Insertion sort: key counts are small relative to the work of building
	// the lattice, and this avoids importing sort for a closure over maps.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}
