package speclint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/specs"
	"repro/internal/trace"
)

func loadFA(t *testing.T, name string) *fa.FA {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := fa.Read(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return m
}

func renderAll(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

func expect(t *testing.T, got []Finding, want []string) {
	t.Helper()
	rendered := renderAll(got)
	if len(rendered) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(rendered), len(want), strings.Join(rendered, "\n"))
	}
	for i := range want {
		if rendered[i] != want[i] {
			t.Errorf("finding %d:\n got %q\nwant %q", i, rendered[i], want[i])
		}
	}
}

// Each seeded-defect golden spec triggers exactly its rule, with the
// exact diagnostic text a user sees from `cable lint`.
func TestSeededDefects(t *testing.T) {
	t.Run("unreachable", func(t *testing.T) {
		expect(t, Lint(loadFA(t, "unreachable.fa")), []string{
			"unreachable: unreachable-state: state s3 is unreachable from the start states",
		})
	})
	t.Run("dead", func(t *testing.T) {
		expect(t, Lint(loadFA(t, "dead.fa")), []string{
			"dead: dead-transition: transition s0 --g()--> s2 is never on an accepting path",
		})
	})
	t.Run("ambiguous", func(t *testing.T) {
		expect(t, Lint(loadFA(t, "ambiguous.fa")), []string{
			"ambiguous: ambiguity: state s0 is nondeterministic on f(): 2 transitions match",
		})
	})
	t.Run("wildcard-overlap", func(t *testing.T) {
		expect(t, Lint(loadFA(t, "wildcard-overlap.fa")), []string{
			"wildcard-overlap: ambiguity: state s0 is nondeterministic on f(): 2 transitions match",
		})
	})
	t.Run("vacuous", func(t *testing.T) {
		expect(t, Lint(loadFA(t, "vacuous.fa")), []string{
			"vacuous: vacuous-acceptance: spec accepts every trace over its alphabet",
		})
	})
	t.Run("mismatch", func(t *testing.T) {
		traces := []trace.Trace{
			trace.ParseEvents("t0", "f()", "h()"),
			trace.ParseEvents("t1", "f()"),
		}
		expect(t, lintWithTraces(loadFA(t, "mismatch.fa"), traces), []string{
			"mismatch: alphabet-mismatch: event h() appears in the traces but no spec transition matches it",
			"mismatch: alphabet-mismatch: event g() labels a spec transition but occurs in no trace",
		})
	})
}

// A wildcard spec matches every event, so the traces→spec direction is
// suppressed; the spec→traces direction still fires.
func TestMismatchWildcardSuppression(t *testing.T) {
	b := fa.NewBuilder("wild")
	s := b.States(2)
	b.Start(s[0])
	b.Accept(s[1])
	b.EdgeStr(s[0], "f()", s[1])
	b.WildcardEdge(s[1], s[1])
	got := lintWithTraces(b.MustBuild(), []trace.Trace{trace.ParseEvents("t0", "g()")})
	expect(t, got, []string{
		"wild: alphabet-mismatch: event f() labels a spec transition but occurs in no trace",
	})
}

func TestDoubleWildcardAmbiguity(t *testing.T) {
	b := fa.NewBuilder("ww")
	s := b.States(2)
	b.Start(s[0])
	b.Accept(s[1])
	b.WildcardEdge(s[0], s[0])
	b.WildcardEdge(s[0], s[1])
	expect(t, Lint(b.MustBuild()), []string{
		"ww: ambiguity: state s0 is nondeterministic on *(): 2 transitions match",
	})
}

// The shipped paper corpus must lint clean: the derivation pipeline
// (union of good templates, determinize, minimize, trim) guarantees no
// structural defect, and this test keeps it that way.
func TestShippedSpecsClean(t *testing.T) {
	all := append(specs.All(), specs.Stdio())
	for _, sp := range all {
		if got := Lint(sp.FA); len(got) != 0 {
			t.Errorf("%s: %d findings on a shipped spec:\n%s",
				sp.Name, len(got), strings.Join(renderAll(got), "\n"))
		}
	}
}

// Figure 1's buggy spec is wrong about the protocol but structurally
// sound — speclint flags malformed automata, not semantic bugs.
func TestFigureOneStructurallyClean(t *testing.T) {
	if got := Lint(specs.FigureOneFA()); len(got) != 0 {
		t.Errorf("figure-1 spec: unexpected findings:\n%s", strings.Join(renderAll(got), "\n"))
	}
}

// TestRulesStable pins every rule name: clients see it as the rule field
// of each finding (cable lint, POST /v1/lint).
func TestRulesStable(t *testing.T) {
	want := []string{
		"unreachable-state", "dead-transition", "ambiguity",
		"vacuous-acceptance", "alphabet-mismatch",
		"redundant-transition", "mergeable-states",
		"language-diff", "subsumed-spec", "duplicate-spec",
	}
	got := rules()
	if len(got) != len(want) {
		t.Fatalf("rules() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rules()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// lintWithTraces runs Lint plus the alphabet-mismatch rule against a
// trace corpus: events the traces use but no spec transition can match
// (the spec silently rejects every such trace), and events the spec
// spells out but no trace ever performs (dead vocabulary, often a typo
// in the spec).
func lintWithTraces(f *fa.FA, traces []trace.Trace) []Finding {
	return append(Lint(f), AlphabetFindings(f, traces)...)
}

// rules lists every rule name in report order.
func rules() []string {
	return []string{
		RuleUnreachableState,
		RuleDeadTransition,
		RuleAmbiguity,
		RuleVacuous,
		RuleAlphabetMismatch,
		RuleRedundantTransition,
		RuleMergeableStates,
		RuleLanguageDiff,
		RuleSubsumedSpec,
		RuleDuplicateSpec,
	}
}
