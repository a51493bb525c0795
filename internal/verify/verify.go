// Package verify implements the trace-level temporal-specification checker
// of Section 2.1: it simulates scenario traces against a specification FA
// and reports the traces the specification rejects as violation traces.
//
// The paper's setting runs a static verifier over whole programs; what the
// debugging method consumes is only the resulting set of violation traces,
// so this checker — which extracts scenarios from concrete execution traces
// with the Strauss front end and checks each against the FA — exercises the
// same downstream code paths (see DESIGN.md, substitutions).
package verify

import (
	"fmt"

	"repro/internal/fa"
	"repro/internal/trace"
)

// Violation is one rejected trace with the position where rejection
// manifested.
type Violation struct {
	// Trace is the violating scenario trace.
	Trace trace.Trace
	// At is the event index at which every run of the specification died,
	// or len(Trace.Events) when the trace ran to completion without
	// reaching an accepting state (e.g. a resource never released).
	At int
}

// String renders the violation with a caret under the offending event.
func (v Violation) String() string {
	if v.At >= len(v.Trace.Events) {
		return fmt.Sprintf("%s <incomplete at end>", v.Trace.Key())
	}
	return fmt.Sprintf("%s <violates at event %d: %s>", v.Trace.Key(), v.At, v.Trace.Events[v.At])
}

// CheckSet checks every trace of a set and returns the violating traces
// as a set alongside the per-trace violations (duplicates included, in set
// order). Each class of identical traces is simulated once on the
// specification's compiled plan, and its duplicates share the verdict.
func CheckSet(spec *fa.FA, set *trace.Set) (*trace.Set, []Violation) {
	sim := spec.Sim()
	vset := &trace.Set{}
	var violations []Violation
	for _, cl := range set.Classes() {
		at := sim.RejectsAt(cl.Rep)
		if at < 0 {
			continue
		}
		for j := 0; j < cl.Count; j++ {
			t := cl.Rep
			t.ID = cl.IDs[j]
			violations = append(violations, Violation{Trace: t, At: at})
			vset.Add(t)
		}
	}
	return vset, violations
}
