package speclint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/specs"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// Two parallel paths accepting the same word: every edge of the diamond
// can individually be removed without changing the language (the other
// path still accepts f g), and the fork is also nondeterministic, so the
// structural rule fires alongside the semantic one.
func TestRedundantTransition(t *testing.T) {
	b := fa.NewBuilder("redundant")
	s := b.States(4)
	b.Start(s[0])
	b.Accept(s[3])
	b.EdgeStr(s[0], "f()", s[1])
	b.EdgeStr(s[0], "f()", s[2])
	b.EdgeStr(s[1], "g()", s[3])
	b.EdgeStr(s[2], "g()", s[3])
	expect(t, LintAll(b.MustBuild()), []string{
		"redundant: ambiguity: state s0 is nondeterministic on f(): 2 transitions match",
		"redundant: redundant-transition: transition s0 --f()--> s1 is redundant: removing it leaves the language unchanged",
		"redundant: redundant-transition: transition s0 --f()--> s2 is redundant: removing it leaves the language unchanged",
		"redundant: redundant-transition: transition s1 --g()--> s3 is redundant: removing it leaves the language unchanged",
		"redundant: redundant-transition: transition s2 --g()--> s3 is redundant: removing it leaves the language unchanged",
	})
}

// The deterministic twin of the same automaton has no redundancy but two
// states with identical residual languages.
func TestMergeableStates(t *testing.T) {
	b := fa.NewBuilder("dup")
	s := b.States(4)
	b.Start(s[0])
	b.Accept(s[3])
	b.EdgeStr(s[0], "f()", s[1])
	b.EdgeStr(s[0], "g()", s[2])
	b.EdgeStr(s[1], "h()", s[3])
	b.EdgeStr(s[2], "h()", s[3])
	expect(t, LintAll(b.MustBuild()), []string{
		"dup: mergeable-states: states s1 and s2 accept the same residual language and can be merged",
	})
}

// Diff on the Section 2 automata: Figure 1's buggy stdio spec both
// accepts behaviours the correct one rejects (fclose on a pipe) and
// rejects behaviours the correct one accepts (pclose on a pipe), so both
// directions fire with concrete witnesses.
func TestDiffFigureOne(t *testing.T) {
	correct := specs.Stdio().FA
	buggy := specs.FigureOneFA()
	findings, err := Diff(buggy, correct)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if len(findings) != 2 {
		t.Fatalf("expected 2 findings, got:\n%s", strings.Join(renderAll(findings), "\n"))
	}
	for _, f := range findings {
		if f.Rule != RuleLanguageDiff {
			t.Errorf("rule = %q, want %q", f.Rule, RuleLanguageDiff)
		}
		if f.Witness == "" {
			t.Errorf("finding %q carries no witness", f.Message)
		}
	}
	if !strings.Contains(findings[0].Message, "rejects") || !strings.Contains(findings[1].Message, "accepts") {
		t.Errorf("unexpected directions:\n%s", strings.Join(renderAll(findings), "\n"))
	}
}

func TestCorpusDuplicateAndSubsumption(t *testing.T) {
	mk := func(name string, words ...[]string) *fa.FA {
		b := fa.NewBuilder(name)
		for _, word := range words {
			cur := b.State()
			b.Start(cur)
			for _, sym := range word {
				next := b.State()
				b.EdgeStr(cur, sym, next)
				cur = next
			}
			b.Accept(cur)
		}
		return b.MustBuild()
	}
	small := mk("small", []string{"f()", "g()"})
	large := mk("large", []string{"f()", "g()"}, []string{"f()", "h()"})
	copySmall := mk("copy", []string{"f()", "g()"})
	unrelated := mk("unrelated", []string{"x()"})

	findings, err := Corpus([]*fa.FA{small, large, copySmall, unrelated})
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	got := renderAll(findings)
	want := []string{
		`small: subsumed-spec: spec's language is strictly contained in "large"`,
		`small: duplicate-spec: spec recognizes the same language as "copy"`,
		`copy: subsumed-spec: spec's language is strictly contained in "large"`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
	for _, f := range findings {
		if f.Rule == RuleSubsumedSpec && f.Witness != "f(); h()" {
			t.Errorf("subsumption witness = %q, want %q", f.Witness, "f(); h()")
		}
	}
}

// The shipped corpus must stay clean under the semantic rules too: the
// derivation pipeline emits minimal DFAs (no redundancy, no mergeable
// states), and no real protocol spec duplicates or subsumes another.
func TestShippedCorpusSemanticClean(t *testing.T) {
	all := append(specs.All(), specs.Stdio())
	var fas []*fa.FA
	for _, sp := range all {
		if got := LintAll(sp.FA); len(got) != 0 {
			t.Errorf("%s: semantic findings on a shipped spec:\n%s",
				sp.Name, strings.Join(renderAll(got), "\n"))
		}
		fas = append(fas, sp.FA)
	}
	findings, err := Corpus(fas)
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("cross-spec findings on the shipped corpus:\n%s",
			strings.Join(renderAll(findings), "\n"))
	}
}

// TestCorpusWitnessGolden is the evaluation the tentpole promises: every
// seeded buggy spec must yield a concrete separating witness against its
// known-correct FA, and the exact witness set is pinned in a golden file
// (make speclint-corpus). Regenerate with -update after an intentional
// corpus change.
func TestCorpusWitnessGolden(t *testing.T) {
	all := append(specs.All(), specs.Stdio())
	var sb strings.Builder
	for _, sp := range all {
		buggy, err := specs.BuggyFA(sp.Name, sp.Model)
		if err != nil {
			t.Fatalf("%s: no seeded buggy FA: %v", sp.Name, err)
		}
		// The seeding guarantees L(correct) ⊆ L(buggy), strictly.
		if inc, _, err := fa.Includes(sp.FA, buggy); err != nil || !inc {
			t.Fatalf("%s: correct language not contained in buggy (inc=%v, err=%v)", sp.Name, inc, err)
		}
		findings, err := Diff(buggy, sp.FA)
		if err != nil {
			t.Fatalf("%s: Diff: %v", sp.Name, err)
		}
		if len(findings) == 0 {
			t.Fatalf("%s: differ produced no witness against the correct FA", sp.Name)
		}
		for _, f := range findings {
			if f.Witness == "" {
				t.Fatalf("%s: finding without witness: %s", sp.Name, f)
			}
			fmt.Fprintf(&sb, "%s\n  witness: %s\n", f, f.Witness)
		}
	}
	goldenPath := filepath.Join("testdata", "corpus_witnesses.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("witness set drifted from %s (run with -update if intentional):\n--- got ---\n%s--- want ---\n%s",
			goldenPath, sb.String(), want)
	}
}
