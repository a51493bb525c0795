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

// Checker binds a specification to its compiled simulation plan once, so
// callers that check in a loop — cabled's stream path checks a session's
// reference FA against every open stream — never pay recompilation. The
// package-level Check/CheckSet/Partition remain as one-shot conveniences
// built on it.
//
// A Checker is safe for concurrent use: the compiled plan is immutable
// and shared.
type Checker struct {
	spec *fa.FA
	sim  *fa.Sim
}

// NewChecker compiles the specification once and returns the reusable
// checker. This is the plan-reuse hoist for loops: fa.Sim caches per
// Builder-built automaton, but zero-value FAs recompile on every Sim
// call, and even cached lookups repeat interner work per invocation —
// the Checker pins the plan unconditionally.
func NewChecker(spec *fa.FA) *Checker {
	return &Checker{spec: spec, sim: spec.Sim()}
}

// Spec returns the specification the checker was compiled from.
func (c *Checker) Spec() *fa.FA { return c.spec }

// Sim exposes the pinned plan so online checkers (internal/stream) can
// share it.
func (c *Checker) Sim() *fa.Sim { return c.sim }

// Check simulates each trace against the specification and returns the
// violations in input order.
func (c *Checker) Check(traces []trace.Trace) []Violation {
	var out []Violation
	for _, t := range traces {
		if at := c.sim.RejectsAt(t); at >= 0 {
			out = append(out, Violation{Trace: t, At: at})
		}
	}
	return out
}

// CheckSet checks every trace of a set and returns the violating traces
// as a set alongside the per-trace violations (duplicates included, in
// set order). Each equivalence class is simulated once — duplicates
// share their class's verdict instead of re-running the automaton.
func (c *Checker) CheckSet(set *trace.Set) (*trace.Set, []Violation) {
	vset := &trace.Set{}
	var violations []Violation
	for _, cl := range set.Classes() {
		at := c.sim.RejectsAt(cl.Rep)
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

// Partition splits a set into the traces the specification accepts and
// the traces it rejects, preserving multiplicities. Each class is
// simulated once.
func (c *Checker) Partition(set *trace.Set) (accepted, rejected *trace.Set) {
	accepted, rejected = &trace.Set{}, &trace.Set{}
	for _, cl := range set.Classes() {
		dst := accepted
		if !c.sim.Accepts(cl.Rep) {
			dst = rejected
		}
		for j := 0; j < cl.Count; j++ {
			t := cl.Rep
			t.ID = cl.IDs[j]
			dst.Add(t)
		}
	}
	return accepted, rejected
}

// CheckSet checks every trace of a set (duplicates included) and returns
// the violating traces as a set alongside the per-class violations.
func CheckSet(spec *fa.FA, set *trace.Set) (*trace.Set, []Violation) {
	return NewChecker(spec).CheckSet(set)
}
