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
// object n to a lattice over objects 0..n-1 runs the step the full
// rebuild would run next — insert, the very step BuildCtx runs over every
// row. The concept set and concept IDs come out identical by
// construction, the new object joins the extent of every concept whose
// intent its row contains, and Godin's generator lemma confines the cover
// repair to the new concepts plus one old concept per new concept (see
// link).
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
// on first use, with its intent-word table covering every concept.
func (l *Lattice) scratch() *godinScratch {
	if l.godin == nil {
		l.godin = &godinScratch{}
	}
	l.godin.godinWordsEnsure(l)
	return l.godin
}

// AddObjectCtx appends one object with the given attribute row, updating
// the context, the concept set, the cover edges, and the query tables in
// place through insert, the step BuildCtx runs for every row. The result
// is byte-identical to a full rebuild over the extended context. One add
// is atomic: cancellation is honored before any mutation, never in the
// middle of one.
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
	o := l.ctx.NumObjects()
	l.ctx.addObject(name, row)
	// The step runs uncancelled, so the add stays atomic.
	if err := l.insert(context.Background(), o, len(l.concepts)); err != nil {
		panic("concept: AddObjectCtx: " + err.Error())
	}
	obs.Count("lattice.incr.adds", 1)
	return nil
}

// repsEnsure lazily builds the row reps from the γ table: objects with
// equal rows share their object concept, so the first object of each
// object concept is its row's rep. There are at most as many reps as
// objects or concepts, so the per-attribute rep lists are cut from one
// table of that width.
func (l *Lattice) repsEnsure() {
	if l.reps != nil {
		return
	}
	most := min(l.ctx.NumObjects(), len(l.concepts))
	l.reps = make([]int32, 0, most)
	l.repped = bitset.New(len(l.concepts))
	l.attrReps = bitset.Table(l.ctx.NumAttributes(), most)
	for o := range l.objConcept {
		l.addRep(o)
	}
}

// addRep makes o the rep of its row unless an earlier object has the row,
// and reports whether it did.
func (l *Lattice) addRep(o int) bool {
	id := l.objConcept[o]
	if l.repped.Has(id) {
		return false
	}
	l.repped.Add(id)
	k := len(l.reps)
	l.reps = append(l.reps, int32(o))
	l.ctx.Attributes(o).Range(func(a int) bool {
		l.attrReps[a].Add(k)
		return true
	})
	return true
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
