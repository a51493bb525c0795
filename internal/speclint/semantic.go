package speclint

import (
	"fmt"
	"strings"

	"repro/internal/fa"
	"repro/internal/trace"
)

// LintAll runs every automaton-only rule: the structural v1 set (Lint)
// followed by the semantic v2 set (Semantic). Reference diffing and
// cross-spec checks need more inputs and live in Diff and Corpus.
func LintAll(f *fa.FA) []Finding {
	return append(Lint(f), Semantic(f)...)
}

// Check lints one specification against whatever comes along with it:
// every automaton-only rule (LintAll), then the alphabet-mismatch rule
// when a trace corpus comes along, then the language diff (Diff) when a
// reference automaton does. A nil traces or ref skips its rules. The
// only error is Diff's.
func Check(spec *fa.FA, traces *trace.Set, ref *fa.FA) ([]Finding, error) {
	findings := LintAll(spec)
	if traces != nil {
		findings = append(findings, alphabetFindings(spec, traces.Representatives())...)
	}
	if ref != nil {
		diff, err := Diff(spec, ref)
		if err != nil {
			return nil, err
		}
		findings = append(findings, diff...)
	}
	return findings, nil
}

// Semantic runs the single-spec semantic rules on internal/fa's DFA engine:
// per-transition redundancy (removing the transition leaves the language
// unchanged) and state-merge suggestions (distinct states with the same
// residual language). Findings come out in rule order, sub-ordered by
// transition and state index.
func Semantic(f *fa.FA) []Finding {
	var out []Finding
	reach := fa.Reachable(f)
	coreach := fa.Coreachable(f)

	// Redundancy: only transitions the automaton can take on an accepting
	// path are candidates — dead transitions are trivially removable and
	// already carry a dead-transition finding.
	for i, t := range f.Transitions() {
		if !reach[int(t.From)] || !coreach[int(t.To)] {
			continue
		}
		eq, err := fa.Equivalent(f, withoutTransition(f, i))
		if err == nil && eq {
			out = append(out, Finding{
				Spec: f.Name(), Rule: RuleRedundantTransition,
				Message: fmt.Sprintf("transition %s is redundant: removing it leaves the language unchanged", t),
			})
		}
	}

	// Merge suggestions only make sense when states are the author's own
	// (deterministic automata); EquivalentStates rejects the rest.
	if groups, err := fa.EquivalentStates(f); err == nil {
		for _, g := range groups {
			out = append(out, Finding{
				Spec: f.Name(), Rule: RuleMergeableStates,
				Message: fmt.Sprintf("states %s accept the same residual language and can be merged", stateList(g)),
			})
		}
	}
	return out
}

// withoutTransition rebuilds f minus transition index i, preserving state
// numbering.
func withoutTransition(f *fa.FA, i int) *fa.FA {
	b := fa.NewBuilder(f.Name())
	b.States(f.NumStates())
	for _, s := range f.StartStates() {
		b.Start(s)
	}
	for _, s := range f.AcceptStates() {
		b.Accept(s)
	}
	for j, t := range f.Transitions() {
		if j != i {
			b.Edge(t.From, t.Label, t.To)
		}
	}
	return b.MustBuild()
}

func stateList(states []int) string {
	parts := make([]string, len(states))
	for i, s := range states {
		parts[i] = fmt.Sprintf("s%d", s)
	}
	if len(parts) == 2 {
		return parts[0] + " and " + parts[1]
	}
	return strings.Join(parts[:len(parts)-1], ", ") + " and " + parts[len(parts)-1]
}

// Diff compares a spec against a reference automaton by language and
// reports one finding per direction of disagreement, each carrying a
// shortest concrete witness trace: one the spec accepts but the reference
// rejects (the spec is too permissive) and one the reference accepts but
// the spec rejects (too strict). Witnesses are re-executed through both
// automata's compiled fa.Sim plans before being reported; a verification
// failure surfaces as an error, never as a finding.
func Diff(spec, ref *fa.FA) ([]Finding, error) {
	var out []Finding
	inc, w, err := fa.Includes(spec, ref)
	if err != nil {
		return nil, err
	}
	if !inc {
		out = append(out, Finding{
			Spec: spec.Name(), Rule: RuleLanguageDiff,
			Message: fmt.Sprintf("spec accepts a trace the reference %q rejects", ref.Name()),
			Witness: w.Key(),
		})
	}
	inc, w, err = fa.Includes(ref, spec)
	if err != nil {
		return nil, err
	}
	if !inc {
		out = append(out, Finding{
			Spec: spec.Name(), Rule: RuleLanguageDiff,
			Message: fmt.Sprintf("spec rejects a trace the reference %q accepts", ref.Name()),
			Witness: w.Key(),
		})
	}
	return out, nil
}

// Corpus cross-checks a set of specifications pairwise: two specs with
// the same language are duplicates, and a spec whose language is strictly
// contained in another's is subsumed (the witness shows a behaviour only
// the larger one accepts). Pairs with disjoint alphabets are skipped —
// between unrelated protocols neither relation means anything.
func Corpus(fas []*fa.FA) ([]Finding, error) {
	var out []Finding
	for i := 0; i < len(fas); i++ {
		for j := i + 1; j < len(fas); j++ {
			a, b := fas[i], fas[j]
			if !alphabetsIntersect(a, b) {
				continue
			}
			ab, wAB, err := fa.Includes(a, b)
			if err != nil {
				return nil, err
			}
			ba, wBA, err := fa.Includes(b, a)
			if err != nil {
				return nil, err
			}
			switch {
			case ab && ba:
				out = append(out, Finding{
					Spec: a.Name(), Rule: RuleDuplicateSpec,
					Message: fmt.Sprintf("spec recognizes the same language as %q", b.Name()),
				})
			case ab:
				// The witness must lie in L(b) \ L(a): the failed reverse
				// inclusion delivered exactly that trace.
				out = append(out, Finding{
					Spec: a.Name(), Rule: RuleSubsumedSpec,
					Message: fmt.Sprintf("spec's language is strictly contained in %q", b.Name()),
					Witness: wBA.Key(),
				})
			case ba:
				out = append(out, Finding{
					Spec: b.Name(), Rule: RuleSubsumedSpec,
					Message: fmt.Sprintf("spec's language is strictly contained in %q", a.Name()),
					Witness: wAB.Key(),
				})
			}
		}
	}
	return out, nil
}

func alphabetsIntersect(a, b *fa.FA) bool {
	in := map[string]bool{}
	for _, e := range a.Alphabet() {
		in[e.String()] = true
	}
	for _, e := range b.Alphabet() {
		if in[e.String()] {
			return true
		}
	}
	return false
}
