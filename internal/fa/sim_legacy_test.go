package fa

import (
	"repro/internal/bitset"
	"repro/internal/trace"
)

// The original per-call simulation loops, kept as reference
// implementations: TestPropSimMatchesLegacy and the other differential
// tests pin the compiled simulator (Sim) against them, and the simulator
// benchmarks read their Legacy lanes from them.

// legacyAccepts is the original per-call simulation loop: a fresh frontier
// bitset per event and a string render + compare per (state, event) pair.
func (f *FA) legacyAccepts(t trace.Trace) bool {
	cur := f.start.Clone()
	for _, e := range t.Events {
		next := bitset.New(f.numStates)
		cur.Range(func(s int) bool {
			for _, ti := range f.matching(State(s), e) {
				next.Add(int(f.trans[ti].To))
			}
			return true
		})
		cur = next
		if cur.Empty() {
			return false
		}
	}
	return cur.Intersects(f.accept)
}

// legacyRejectsAt is the original RejectsAt loop (see legacyAccepts).
func (f *FA) legacyRejectsAt(t trace.Trace) int {
	cur := f.start.Clone()
	for i, e := range t.Events {
		next := bitset.New(f.numStates)
		cur.Range(func(s int) bool {
			for _, ti := range f.matching(State(s), e) {
				next.Add(int(f.trans[ti].To))
			}
			return true
		})
		if next.Empty() {
			return i
		}
		cur = next
	}
	if cur.Intersects(f.accept) {
		return -1
	}
	return len(t.Events)
}

// legacyExecuted is the original forward/backward product (see Executed for
// the algorithm), allocating per-position bitsets and comparing labels by
// rendered string.
func (f *FA) legacyExecuted(t trace.Trace) (executed *bitset.Set, ok bool) {
	n := len(t.Events)
	fwd := make([]*bitset.Set, n+1)
	fwd[0] = f.start.Clone()
	for i, e := range t.Events {
		next := bitset.New(f.numStates)
		fwd[i].Range(func(s int) bool {
			for _, ti := range f.matching(State(s), e) {
				next.Add(int(f.trans[ti].To))
			}
			return true
		})
		fwd[i+1] = next
	}
	executed = bitset.New(len(f.trans))
	if !fwd[n].Intersects(f.accept) {
		return executed, false
	}
	bwd := make([]*bitset.Set, n+1)
	bwd[n] = bitset.Intersect(fwd[n], f.accept)
	for i := n - 1; i >= 0; i-- {
		e := t.Events[i]
		prev := bitset.New(f.numStates)
		key := e.String()
		// A state p belongs in bwd[i] if it has a matching transition into
		// bwd[i+1]; we scan transitions entering states of bwd[i+1].
		bwd[i+1].Range(func(q int) bool {
			for _, ti := range f.byTo[q] {
				tr := f.trans[ti]
				if IsWildcard(tr.Label) || tr.Label.String() == key {
					prev.Add(int(tr.From))
				}
			}
			return true
		})
		prev.IntersectWith(fwd[i])
		bwd[i] = prev
	}
	for i, e := range t.Events {
		key := e.String()
		fwd[i].Range(func(p int) bool {
			for _, ti := range f.byFrom[p] {
				tr := f.trans[ti]
				if (IsWildcard(tr.Label) || tr.Label.String() == key) && bwd[i+1].Has(int(tr.To)) {
					executed.Add(ti)
				}
			}
			return true
		})
	}
	return executed, true
}
