// Package core is the top-level public API of the library: it ties traces,
// reference automata, concept analysis, and Cable sessions together into
// the paper's two debugging workflows.
//
// Workflow 1 — debugging by testing (Section 2.1): a specification is
// checked against scenario traces; the rejected traces (violations) are
// clustered and labeled, and the specification is fixed to accept the
// traces labeled good:
//
//	session, violations, err := core.DebugViolations(spec, scenarios)
//	... label concepts via session ...
//	fixed, err := core.FixSpec(spec, session)
//
// Workflow 2 — debugging a mined specification (Section 2.2): the miner's
// scenario traces are clustered using the mined FA itself as the reference,
// labeled, and the miner's back end is rerun on the good traces:
//
//	session, err := core.DebugMined(minedFA, scenarios)
//	... label concepts ...
//	fixed, err := core.RelearnGood(session, miner)
package core

import (
	"fmt"
	"strings"

	"repro/internal/cable"
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/mine"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Session re-exports the Cable session type; see internal/cable for the
// labeling and summary operations.
type Session = cable.Session

// DebugViolations runs Step 1 of the testing workflow: check the
// specification against the scenario multiset, learn a reference FA from
// the violation traces (Step 1a notes a great learner is not essential),
// and build the concept-lattice session over the violations. When the
// specification rejects nothing, it returns (nil, nil, nil).
func DebugViolations(spec *fa.FA, scenarios *trace.Set) (*Session, []verify.Violation, error) {
	violations, raw := verify.CheckSet(spec, scenarios)
	if violations.Total() == 0 {
		return nil, nil, nil
	}
	ref := ReferenceFA(violations)
	session, err := cable.NewSession(violations, ref)
	if err != nil {
		return nil, nil, err
	}
	return session, raw, nil
}

// DebugProgram runs the static variant of the testing workflow: check a
// program model against the specification with the product-based verifier
// (verify.Static), and build the debugging session over the reported
// violation traces (bounded by maxLen events per trace and limit traces).
// When the program conforms up to the bound, it returns (nil, nil, nil).
func DebugProgram(program, spec *fa.FA, maxLen, limit int) (*Session, []verify.Violation, error) {
	violations, err := verify.Static(program, spec, maxLen, limit)
	if err != nil {
		return nil, nil, err
	}
	if len(violations) == 0 {
		return nil, nil, nil
	}
	set := &trace.Set{}
	for _, v := range violations {
		set.Add(v.Trace)
	}
	session, err := cable.NewSession(set, ReferenceFA(set))
	if err != nil {
		return nil, nil, err
	}
	return session, violations, nil
}

// DebugMined builds a session for a mined specification's scenario traces,
// using the mined FA itself as the reference (the expert "already has one:
// the FA from the miner's buggy specification"). If the mined FA rejects
// some scenario (possible after coring), a learned reference over the
// scenarios is used instead.
func DebugMined(mined *fa.FA, scenarios *trace.Set) (*Session, error) {
	ref := mined
	sim := mined.Sim()
	for _, c := range scenarios.Classes() {
		if !sim.Accepts(c.Rep) {
			ref = ReferenceFA(scenarios)
			break
		}
	}
	return cable.NewSession(scenarios, ref)
}

// ReferenceFA learns a reference automaton that accepts every trace of the
// set, suitable for defining trace similarity (Step 1a). The sk-strings
// learner guarantees the training set is accepted.
func ReferenceFA(set *trace.Set) *fa.FA {
	var all []trace.Trace
	for _, c := range set.Classes() {
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			all = append(all, t)
		}
	}
	return learn.DefaultLearner.MustLearn("reference", all).FA
}

// FixSpec performs Step 3 of the testing workflow: extend the specification
// to accept the traces labeled good while continuing to reject the traces
// labeled bad. The repaired specification is the minimized union of the old
// language with an FA learned from the good traces. An error is returned if
// some bad-labeled trace would be accepted (a labeling mistake, caught as
// in Step 2b).
func FixSpec(spec *fa.FA, session *Session) (*fa.FA, error) {
	good := session.TracesWith(cable.Good)
	if good.Total() == 0 {
		return spec, nil
	}
	goodFA := ReferenceFA(good).WithName(spec.Name() + "+good")
	fixed, err := fa.Minimize(fa.Union(spec, goodFA))
	if err != nil {
		return nil, err
	}
	fixed = fixed.WithName(spec.Name() + "-fixed")
	for _, c := range session.TracesWith(cable.Bad).Classes() {
		if fixed.Accepts(c.Rep) {
			return nil, fmt.Errorf("core: fixed specification accepts bad-labeled trace %q; recheck the labeling", c.Rep.Key())
		}
	}
	return fixed, nil
}

// RelearnGood performs Step 3 of the mining workflow: rerun the miner's
// back end on every trace labeled good. Labels beginning with "good" are
// relearned separately and unioned — the multiple-good-label idiom that
// fights overgeneralization (Section 2.2).
func RelearnGood(session *Session, miner mine.Miner) (*fa.FA, error) {
	var out *fa.FA
	for _, label := range session.UsedLabels() {
		if !IsGoodLabel(label) {
			continue
		}
		part, err := miner.Relearn("relearned:"+string(label), session.TracesWith(label))
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = part
		} else {
			out = fa.Union(out, part)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("core: no traces labeled good")
	}
	min, err := fa.Minimize(out)
	if err != nil {
		return nil, err
	}
	return min.WithName("relearned"), nil
}

// IsGoodLabel reports whether the label marks correct traces: "good" or any
// label beginning with "good" (e.g. "good fopen").
func IsGoodLabel(l cable.Label) bool {
	return strings.HasPrefix(string(l), string(cable.Good))
}
