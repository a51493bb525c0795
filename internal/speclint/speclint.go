// Package speclint statically analyzes specification automata for the
// structural defects that make concept-analysis debugging sessions
// misleading before a single trace is clustered: states the FA can never
// enter, transitions that lie on no accepting path (their attribute
// column in the trace context is constantly empty), nondeterministic
// ambiguity (one event, several successor states, so "executed
// transitions" stops being well defined for the paper's Section 3.2
// context), vacuous acceptance (the spec accepts every trace over its
// alphabet and can therefore never flag a violation), and — when a trace
// corpus is supplied — alphabet mismatch in both directions between the
// spec and the traces it is meant to classify.
//
// speclint is the specification-level counterpart of cmd/cablevet: vet
// checks the Go code of this repo, speclint checks the FA artifacts the
// repo consumes. Both run in `make ci`.
package speclint

import (
	"fmt"
	"sort"

	"repro/internal/fa"
	"repro/internal/trace"
)

// Rule names, used in Finding.Rule and in diagnostics filtering. The
// first five are the structural v1 rules; the rest are the semantic v2
// rules built on internal/fa's DFA engine.
const (
	RuleUnreachableState    = "unreachable-state"
	RuleDeadTransition      = "dead-transition"
	RuleAmbiguity           = "ambiguity"
	RuleVacuous             = "vacuous-acceptance"
	RuleAlphabetMismatch    = "alphabet-mismatch"
	RuleRedundantTransition = "redundant-transition"
	RuleMergeableStates     = "mergeable-states"
	RuleLanguageDiff        = "language-diff"
	RuleSubsumedSpec        = "subsumed-spec"
	RuleDuplicateSpec       = "duplicate-spec"
)

// Finding is one diagnostic about a specification automaton.
type Finding struct {
	Spec    string `json:"spec"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	// Witness, when set, is the trace key of a concrete counterexample
	// backing the finding — e.g. a trace the spec accepts but its
	// reference rejects. Witness traces are re-executed through fa.Sim
	// before they are reported (fa.Includes enforces this).
	Witness string `json:"witness,omitempty"`
}

// String renders the finding as "spec: rule: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Spec, f.Rule, f.Message)
}

// Lint runs the structural rules — everything that needs only the
// automaton itself. Findings come out in rule order (Rules), sub-ordered
// by state and transition index, so reports are deterministic.
func Lint(f *fa.FA) []Finding {
	var out []Finding
	reach := fa.Reachable(f)
	coreach := fa.Coreachable(f)

	for s := 0; s < f.NumStates(); s++ {
		if !reach[s] {
			out = append(out, Finding{
				Spec: f.Name(), Rule: RuleUnreachableState,
				Message: fmt.Sprintf("state s%d is unreachable from the start states", s),
			})
		}
	}

	// A transition out of an unreachable state is implied by the
	// unreachable-state finding; only transitions the automaton can
	// actually take but that never lead to acceptance are reported.
	for _, t := range f.Transitions() {
		if reach[int(t.From)] && !coreach[int(t.To)] {
			out = append(out, Finding{
				Spec: f.Name(), Rule: RuleDeadTransition,
				Message: fmt.Sprintf("transition %s is never on an accepting path", t),
			})
		}
	}

	out = append(out, ambiguity(f)...)

	if vacuous(f) {
		out = append(out, Finding{
			Spec: f.Name(), Rule: RuleVacuous,
			Message: "spec accepts every trace over its alphabet",
		})
	}
	return out
}

// alphabetFindings runs just the alphabet-mismatch rule, so Check can add
// it after the automaton-only rules without duplicating findings.
func alphabetFindings(f *fa.FA, traces []trace.Trace) []Finding {
	var out []Finding
	inTraces := map[string]bool{}
	for _, t := range traces {
		for _, e := range t.Events {
			inTraces[e.String()] = true
		}
	}
	inSpec := map[string]bool{}
	var specEvents []string
	for _, e := range f.Alphabet() {
		s := e.String()
		inSpec[s] = true
		specEvents = append(specEvents, s)
	}

	// Traces → spec: pointless unless the spec is wildcard-free — a
	// wildcard transition matches every event.
	if !f.HasWildcard() {
		var missing []string
		for e := range inTraces {
			if !inSpec[e] {
				missing = append(missing, e)
			}
		}
		sort.Strings(missing)
		for _, e := range missing {
			out = append(out, Finding{
				Spec: f.Name(), Rule: RuleAlphabetMismatch,
				Message: fmt.Sprintf("event %s appears in the traces but no spec transition matches it", e),
			})
		}
	}

	// Spec → traces.
	for _, e := range specEvents {
		if !inTraces[e] {
			out = append(out, Finding{
				Spec: f.Name(), Rule: RuleAlphabetMismatch,
				Message: fmt.Sprintf("event %s labels a spec transition but occurs in no trace", e),
			})
		}
	}
	return out
}

// ambiguity reports, per state and label, how many transitions match one
// event: two same-label edges, or a wildcard edge overlapping anything
// (including a second wildcard). Matching mirrors fa.FA.matching.
func ambiguity(f *fa.FA) []Finding {
	var out []Finding
	byFrom := make([][]fa.Transition, f.NumStates())
	for _, t := range f.Transitions() {
		byFrom[int(t.From)] = append(byFrom[int(t.From)], t)
	}
	for s := 0; s < f.NumStates(); s++ {
		wild := 0
		counts := map[string]int{}
		var order []string
		for _, t := range byFrom[s] {
			if fa.IsWildcard(t.Label) {
				wild++
				continue
			}
			key := t.Label.String()
			if counts[key] == 0 {
				order = append(order, key)
			}
			counts[key]++
		}
		sort.Strings(order)
		for _, key := range order {
			if n := counts[key] + wild; n > 1 {
				out = append(out, Finding{
					Spec: f.Name(), Rule: RuleAmbiguity,
					Message: fmt.Sprintf("state s%d is nondeterministic on %s: %d transitions match", s, key, n),
				})
			}
		}
		if wild > 1 {
			out = append(out, Finding{
				Spec: f.Name(), Rule: RuleAmbiguity,
				Message: fmt.Sprintf("state s%d is nondeterministic on %s: %d transitions match", s, fa.Wildcard(), wild),
			})
		}
	}
	return out
}

// vacuous reports whether the automaton accepts every trace over its own
// alphabet: compile to a complete DFA (wildcards expand over the
// alphabet) and ask whether the complement's language is empty. An
// automaton the engine cannot compile is never reported vacuous.
func vacuous(f *fa.FA) bool {
	d, err := fa.Determinize(f, f.Alphabet())
	if err != nil {
		return false
	}
	_, rejectsSomething := d.Complement().Witness()
	return !rejectsSomething
}
