package concept

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/trace"
)

// This file implements incremental lattice maintenance: adding one object
// to a live lattice without rebuilding it, with results pinned
// byte-identical to a full BuildCtx rebuild over the extended context.
//
// Adding is the direction the paper's own choice of Godin et al.'s
// Algorithm 1 buys us: BuildCtx inserts objects one at a time, so adding
// object n to a lattice over objects 0..n-1 runs the loop iteration the
// full rebuild would run next — the concept set and concept IDs come out
// identical by construction, and the new object joins the extent of every
// concept whose intent its row contains. Only the cover edges and the
// query tables need repair, and Godin's generator lemma confines the cover
// repair to the new concepts plus one old concept per new concept (see
// repairCoversAfterAdd).
//
// Incremental mutation is not safe concurrently with queries; callers
// (cable sessions, the server) serialize access per lattice.

// AddTraceCtx appends one trace as a new object of a lattice built over a
// trace context (BuildFromTraces): the trace is simulated against the
// reference FA and its executed-transition row extends the context and the
// lattice in place. The reference FA must be the one the context was built
// from (same transition set), and it must accept the trace. The trace is
// simulated into a scratch row the lattice keeps, which AddObjectCtx
// copies into the context.
func (l *Lattice) AddTraceCtx(cc context.Context, t trace.Trace, ref *fa.FA) error {
	if ref.NumTransitions() != l.ctx.NumAttributes() {
		return fmt.Errorf("concept: reference FA %q has %d transitions, lattice context has %d attributes",
			ref.Name(), ref.NumTransitions(), l.ctx.NumAttributes())
	}
	name := t.ID
	if name == "" {
		name = fmt.Sprintf("t%d", l.ctx.NumObjects())
	}
	row := &l.scratch().row
	if !ref.Sim().ExecutedInto(row, t) {
		return fmt.Errorf("concept: reference FA %q rejects trace %q (%s)", ref.Name(), name, t.Key())
	}
	return l.AddObjectCtx(cc, name, row)
}

// scratch returns the insertion scratch cached on the lattice, creating it
// on first use.
func (l *Lattice) scratch() *godinScratch {
	if l.godin == nil {
		l.godin = &godinScratch{}
	}
	return l.godin
}

// AddObjectCtx appends one object with the given attribute row, updating
// the context, the concept set, the cover edges, and the query tables in
// place. The result is byte-identical to a full rebuild over the extended
// context. One add is atomic: cancellation is honored before any mutation,
// never in the middle of one.
func (l *Lattice) AddObjectCtx(cc context.Context, name string, row *bitset.Set) error {
	if err := cc.Err(); err != nil {
		return err
	}
	if len(l.concepts) == 0 {
		return fmt.Errorf("concept: cannot add to an empty (unbuilt) lattice")
	}
	numAttr := l.ctx.NumAttributes()
	bad := -1
	row.Range(func(a int) bool {
		if a >= numAttr {
			bad = a
			return false
		}
		return true
	})
	if bad >= 0 {
		return fmt.Errorf("concept: attribute %d out of range (%d attributes)", bad, numAttr)
	}
	sp := obs.StartSpan("lattice.incr.add")
	defer sp.End()
	if l.arena == nil {
		// Naive-built lattices have no arena; chain one on for growth.
		l.arena = bitset.NewArena()
	}
	l.repsEnsure()
	l.invEnsure()
	g := l.scratch()
	g.godinWordsEnsure(l)

	o := l.ctx.NumObjects()
	l.ctx.addObject(name, row)
	row = l.ctx.Attributes(o) // the context's own copy

	// Godin step: the loop iteration BuildCtx would run for object o, with
	// o joining the old extents it belongs to. The new object joins reps
	// iff no earlier object has its row, and it must be there before cover
	// repair: candidate generation is complete only over all distinct rows.
	firstNew := len(l.concepts)
	l.godinScan(row, g, o)
	l.updateTablesAfterAdd(o, &g.inter)
	l.addRep(o)

	l.repairCoversAfterAdd(firstNew, g)
	l.updateTopAfterAdd(row, &g.inter)
	obs.Count("lattice.incr.adds", 1)
	return nil
}

// updateTopAfterAdd moves the top to the concept of the grown context's
// common attributes. The top's intent is σ of every object, the attributes
// all rows share, so after an add it is intent(top) ∩ row, a closed intent
// one index probe finds. The bottom's intent holds every attribute (the
// Godin seed), and it stays the bottom through every add.
func (l *Lattice) updateTopAfterAdd(row, scratch *bitset.Set) {
	bitset.IntersectInto(scratch, l.concepts[l.top].Intent, row)
	id := l.idx.lookup(l.concepts, scratch)
	if id < 0 {
		panic("concept: common attributes are not a closed intent")
	}
	l.top = id
}

// updateTablesAfterAdd extends the query tables for one appended object.
// The ObjectConcept entries of earlier objects are stable under an add —
// concept IDs never change, intents are immutable, and old rows are
// untouched, so each σ({o'}) resolves to the same concept — which leaves one
// index lookup for γo. AttributeConcept changes only for the attributes a of
// the new row: τ({a}) gains o, so μa's intent becomes
// σ(τ({a}) ∪ {o}) = intent(μa) ∩ row, a closed intent the index resolves
// directly. Every constructor builds or copies the tables, so they cover
// the old objects.
func (l *Lattice) updateTablesAfterAdd(o int, scratch *bitset.Set) {
	sp := obs.StartSpan("lattice.tables")
	defer sp.End()
	row := l.ctx.Attributes(o)
	id := l.idx.lookup(l.concepts, row)
	if id < 0 {
		panic("concept: object row is not a closed intent")
	}
	l.objConcept = append(l.objConcept, id)
	row.Range(func(a int) bool {
		bitset.IntersectInto(scratch, l.concepts[l.attrConcept[a]].Intent, row)
		id := l.idx.lookup(l.concepts, scratch)
		if id < 0 {
			panic("concept: attribute closure is not a closed intent")
		}
		l.attrConcept[a] = id
		return true
	})
}

// repairCoversAfterAdd fixes the Hasse diagram after the Godin step
// appended concepts firstNew.. (if any), touching only the new concepts and
// their generators. When no concepts were born the diagram is unchanged:
// extent inclusion among old concepts is preserved by the add (if
// intent(d) ⊆ intent(c) and c gains o then intent(d) ⊆ row, so d gains o
// too), and a changed cover would need a concept strictly between two old
// neighbours — a new concept.
//
// The generator of a new concept n is the old concept g with the largest
// extent whose intent strictly contains intent(n): extent(g) = τ(intent(n))
// over the old objects, so intent(g) is the old closure of intent(n), the
// smallest old intent containing it, and the bottom always qualifies. The
// add never modifies g (intent(g) ⊆ row would make intent(n) an old
// intent), distinct new concepts have distinct generators, and every old
// concept c below n has extent(c) ⊆ extent(g), so c sits at or below g.
// Hence:
//   - an old concept c that generates nothing keeps its parents: g lies
//     strictly between c and any new n above it, so n is no cover of c and
//     splits no old cover edge of c;
//   - g gains n as a cover and loses exactly its old covers that lie above
//     n, and no other new concept is between g and its remaining covers;
//   - the new concepts get their covers from coverParents.
//
// Children lists are patched from the same edits.
func (l *Lattice) repairCoversAfterAdd(firstNew int, g *godinScratch) {
	n := len(l.concepts)
	for ci := firstNew; ci < n; ci++ {
		l.parents = append(l.parents, nil)
		l.children = append(l.children, []int{})
	}
	words := g.words
	for ci := firstNew; ci < n; ci++ {
		// The generator has the smallest intent of the old concepts whose
		// intent contains intent(ci); every such intent contains it.
		gen := -1
		for cj := 0; cj < firstNew; cj++ {
			if l.intentSubset(words, int32(ci), int32(cj)) &&
				(gen < 0 || l.intentSubset(words, int32(cj), int32(gen))) {
				gen = cj
			}
		}
		kept := l.parents[gen][:0]
		for _, p := range l.parents[gen] {
			if l.intentSubset(words, int32(p), int32(ci)) {
				l.children[p] = removeSortedInt(l.children[p], gen)
				continue
			}
			kept = append(kept, p)
		}
		l.parents[gen] = insertSortedInt(kept, ci)
		l.children[ci] = insertSortedInt(l.children[ci], gen)

		l.parents[ci] = l.coverParents(ci, g)
		for _, p := range l.parents[ci] {
			l.children[p] = insertSortedInt(l.children[p], ci)
		}
	}
}

// coverParents computes the upper covers of concept ci as linkCovers does:
// coverGen collects the candidates and minimalCovers keeps the minimal
// ones. The returned list is re-sorted ascending by ID, matching the
// rebuild's merge. The generator probes every rep on its row path, having
// no per-attribute rep index to keep current across adds.
func (l *Lattice) coverParents(ci int, g *godinScratch) []int {
	if n := len(l.concepts); len(g.sizes) < n {
		g.sizes = append(g.sizes, make([]int32, n-len(g.sizes))...)
	}
	g.cover.l, g.cover.words = l, g.words // words grows with every spawned concept
	cand := g.cover.next(ci)
	for _, id := range cand {
		g.sizes[id] = int32(l.concepts[id].Extent.Len())
	}
	g.covers = l.minimalCovers(g.covers[:0], cand, g.sizes, g.words)
	out := make([]int, len(g.covers))
	for i, cj := range g.covers {
		out[i] = int(cj)
	}
	insertionSortInts(out)
	return out
}

// repsEnsure lazily builds the row reps from the γ table: objects with
// equal rows share their object concept, so the first object of each
// object concept is its row's rep.
func (l *Lattice) repsEnsure() {
	if l.reps != nil {
		return
	}
	l.reps = make([]int32, 0, len(l.objConcept))
	l.repped = bitset.New(len(l.concepts))
	for o := range l.objConcept {
		l.addRep(o)
	}
}

// addRep makes o the rep of its row unless an earlier object has the row.
func (l *Lattice) addRep(o int) {
	if id := l.objConcept[o]; !l.repped.Has(id) {
		l.repped.Add(id)
		l.reps = append(l.reps, int32(o))
	}
}

// insertSortedInt inserts x into ascending xs, keeping it sorted. xs slices
// may alias a shared slab with exact capacity, so growth reallocates before
// shifting.
func insertSortedInt(xs []int, x int) []int {
	i := sort.SearchInts(xs, x)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

// removeSortedInt deletes x from ascending xs in place; absent x is a
// programming error upstream and panics.
func removeSortedInt(xs []int, x int) []int {
	i := sort.SearchInts(xs, x)
	if i >= len(xs) || xs[i] != x {
		panic("concept: cover edge to remove is missing")
	}
	copy(xs[i:], xs[i+1:])
	return xs[:len(xs)-1]
}
