package concept

import (
	"cmp"
	"context"
	"slices"
	"strings"

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
	slices.SortFunc(keys, func(a, b string) int {
		return cmp.Or(cmp.Compare(intents[b].Len(), intents[a].Len()), strings.Compare(a, b))
	})
	for _, k := range keys {
		intent := intents[k]
		l.newConcept(ctx.Tau(intent), intent)
	}
	// Concept 0 has the full intent, as a build's seed does, so the tables
	// and covers follow as they do after insert's scan.
	l.extendTables(0)
	if err := l.link(context.Background(), 0); err != nil {
		panic("concept: BuildNaive: " + err.Error())
	}
	l.godin = nil
	return l
}
