package fa

import (
	"repro/internal/bitset"
	"repro/internal/trace"
)

// The public simulation methods are thin wrappers over the automaton's
// compiled plan (see Sim): the plan is built once per FA and cached, so
// per-call users and goroutines sharing the plan run the same code path.
// The original per-call loops live in sim_legacy_test.go as legacy* — the
// reference implementations that the differential tests and benchmarks pin
// the compiled simulator against.

// Accepts reports whether some run of the automaton accepts the trace.
func (f *FA) Accepts(t trace.Trace) bool {
	return f.Sim().Accepts(t)
}

// RejectsAt returns the index of the first event at which every run of the
// automaton is dead (no matching transition from any reachable state), or
// len(t.Events) if the trace runs to completion but ends in no accepting
// state, or -1 if the trace is accepted. Verifiers use this to report where
// a violation manifests.
func (f *FA) RejectsAt(t trace.Trace) int {
	return f.Sim().RejectsAt(t)
}

// Executed returns the set of transition indices that lie on at least one
// accepting run of the automaton on the trace — the relation R of Section
// 3.2: (o, a) ∈ R iff transition a can be executed while accepting o.
//
// If the trace is not accepted, the returned set is empty and ok is false.
//
// The computation is the standard forward/backward product: F[i] is the set
// of states reachable from a start state by consuming t[0:i], B[i] the set of
// states from which t[i:] can reach acceptance; transition (p --e--> q) is
// executed iff for some i with label match at t[i], p ∈ F[i] and q ∈ B[i+1].
func (f *FA) Executed(t trace.Trace) (executed *bitset.Set, ok bool) {
	return f.Sim().Executed(t)
}

// AcceptingRun returns one accepting sequence of transition indices for the
// trace, or nil if the trace is rejected. Used by summaries that want to
// show a witness path.
func (f *FA) AcceptingRun(t trace.Trace) []int {
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
	final := bitset.Intersect(fwd[n], f.accept)
	if final.Empty() {
		return nil
	}
	// Walk backwards choosing any predecessor.
	run := make([]int, n)
	target := State(final.Min())
	for i := n - 1; i >= 0; i-- {
		key := t.Events[i].String()
		found := false
		for _, ti := range f.byTo[target] {
			tr := f.trans[ti]
			if (IsWildcard(tr.Label) || tr.Label.String() == key) && fwd[i].Has(int(tr.From)) {
				run[i] = ti
				target = tr.From
				found = true
				break
			}
		}
		if !found {
			// Unreachable given final was derived from fwd, but keep the
			// invariant explicit.
			return nil
		}
	}
	return run
}
