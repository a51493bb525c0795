package verify

import (
	"fmt"

	"repro/internal/fa"
	"repro/internal/trace"
)

// This file implements the static side of Section 2.1: a verification tool
// that "analyzes the program and reports violation traces, which are
// program execution traces that demonstrate an apparent violation of the
// specification". Programs are modeled as automata over the same event
// alphabet as specifications — each accepted word is a possible per-object
// scenario of the program — and the verifier reports the shortest words
// the program can produce that the specification rejects, via the product
// of the program with the specification's complement over their joint
// alphabet (fa.JointAlphabet), so wildcard specifications check exactly.

// Static reports up to limit violation traces of length at most maxLen
// that the program model can produce but the specification rejects,
// shortest first. The returned traces carry IDs "static#<n>". An empty
// result means the program conforms to the specification up to maxLen.
func Static(program, spec *fa.FA, maxLen, limit int) ([]Violation, error) {
	bad, err := violating(program, spec)
	if err != nil {
		return nil, fmt.Errorf("verify: %q against %q: %w", program.Name(), spec.Name(), err)
	}
	sim := spec.Sim()
	var out []Violation
	for i, t := range bad.Enumerate(maxLen, limit) {
		t.ID = fmt.Sprintf("static#%d", i)
		at := sim.RejectsAt(t)
		if at < 0 {
			return nil, fmt.Errorf("verify: internal error: enumerated trace %q accepted by spec", t.Key())
		}
		out = append(out, Violation{Trace: t, At: at})
	}
	return out, nil
}

// violating returns the trimmed product of the program's and the
// specification's DFAs over their joint alphabet that accepts exactly the
// program behaviours the specification rejects.
func violating(program, spec *fa.FA) (*fa.FA, error) {
	alpha := fa.JointAlphabet(program, spec)
	dp, err := fa.Determinize(program, alpha)
	if err != nil {
		return nil, err
	}
	ds, err := fa.Determinize(spec, alpha)
	if err != nil {
		return nil, err
	}
	bad, err := fa.Product(dp, ds, func(p, s bool) bool { return p && !s })
	if err != nil {
		return nil, err
	}
	return bad.FA(program.Name() + "&!" + spec.Name()).Trim(), nil
}

// Conforms reports whether every behaviour of the program model is
// accepted by the specification: L(program) ⊆ L(spec). Exact (not
// bounded): it checks emptiness of program ∩ ¬spec.
func Conforms(program, spec *fa.FA) (bool, error) {
	ok, _, err := fa.Includes(program, spec)
	return ok, err
}

// StaticSet is Static collected into a trace set ready for a Cable
// session.
func StaticSet(program, spec *fa.FA, maxLen, limit int) (*trace.Set, []Violation, error) {
	violations, err := Static(program, spec, maxLen, limit)
	if err != nil {
		return nil, nil, err
	}
	set := &trace.Set{}
	for _, v := range violations {
		set.Add(v.Trace)
	}
	return set, violations, nil
}
