package cable

import (
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/trace"
)

// violationSet builds the violation traces of Section 2.1: correct
// popen/pclose pairs that the buggy spec rejects, plus genuinely erroneous
// leaks and mismatches.
func violationSet() *trace.Set {
	return trace.NewSet(
		trace.ParseEvents("v0", "X = popen()", "pclose(X)"),
		trace.ParseEvents("v1", "X = popen()", "fread(X)", "pclose(X)"),
		trace.ParseEvents("v2", "X = popen()", "fwrite(X)", "pclose(X)"),
		trace.ParseEvents("v3", "X = popen()", "fread(X)"),  // leak
		trace.ParseEvents("v4", "X = fopen()", "fread(X)"),  // leak
		trace.ParseEvents("v5", "X = fopen()", "pclose(X)"), // mismatch
		trace.ParseEvents("v6", "X = popen()", "pclose(X)"), // duplicate of v0
	)
}

// reference is a Figure-3-style FA recognizing all the violation traces: a
// one-state automaton with a loop per event.
func reference(set *trace.Set) *fa.FA {
	return fa.FromTraces(set.Alphabet())
}

func newTestSession(t *testing.T) *Session {
	t.Helper()
	set := violationSet()
	s, err := NewSession(set, reference(set))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionSetup(t *testing.T) {
	s := newTestSession(t)
	if s.NumTraces() != 6 { // v0 and v6 are identical
		t.Fatalf("NumTraces = %d, want 6", s.NumTraces())
	}
	if must(s.Multiplicity(0)) != 2 {
		t.Errorf("Multiplicity(v0) = %d, want 2", must(s.Multiplicity(0)))
	}
	if got := len(s.Labels()); got != s.NumTraces() {
		t.Fatalf("%d labels for %d traces", got, s.NumTraces())
	}
	if s.Done() {
		t.Error("fresh session reports Done")
	}
	top := s.Lattice().Top()
	if must(s.ConceptState(top)) != StateUnlabeled {
		t.Errorf("top state = %v", must(s.ConceptState(top)))
	}
}

// popenConcept finds the concept of traces executing X = popen().
func popenConcept(t *testing.T, s *Session) int {
	t.Helper()
	for _, c := range s.Lattice().Concepts() {
		wantExtent := map[int]bool{}
		for i := 0; i < s.NumTraces(); i++ {
			if strings.Contains(s.Representatives()[i].Key(), "popen()") &&
				!strings.Contains(s.Representatives()[i].Key(), "fopen") {
				wantExtent[i] = true
			}
		}
		if c.Extent.Len() != len(wantExtent) {
			continue
		}
		match := true
		c.Extent.Range(func(o int) bool {
			if !wantExtent[o] {
				match = false
			}
			return match
		})
		if match {
			return c.ID
		}
	}
	t.Fatal("no popen concept found")
	return -1
}

func TestSection21Walkthrough(t *testing.T) {
	// Reproduce the Step 2a narrative: find the popen concept, label its
	// pclose sub-concept good, then label the remaining (leaky) traces bad.
	s := newTestSession(t)
	popen := popenConcept(t, s)

	// The popen concept mixes correct pclose traces with a leak; descend to
	// the child containing both popen and pclose transitions.
	var pcloseChild = -1
	for _, ch := range s.Lattice().Children(popen) {
		labels := map[string]bool{}
		for _, tr := range must(s.ShowTransitions(ch, SelectAll())) {
			labels[tr.Label.String()] = true
		}
		if labels["X = popen()"] && labels["pclose(X)"] {
			pcloseChild = ch
			break
		}
	}
	if pcloseChild < 0 {
		t.Fatal("no popen+pclose child concept")
	}
	if n := must(s.LabelTraces(pcloseChild, SelectAll(), Good)); n != 3 {
		t.Fatalf("labeled %d traces good, want 3", n)
	}
	if must(s.ConceptState(popen)) != StatePartlyLabeled {
		t.Errorf("popen concept state = %v after child labeling", must(s.ConceptState(popen)))
	}
	// Revisit the popen concept: its unlabeled traces are the leaks.
	rest := must(s.Select(popen, SelectUnlabeled()))
	if len(rest) != 1 || !strings.HasSuffix(s.Representatives()[rest[0]].Key(), "fread(X)") {
		t.Fatalf("unexpected unlabeled remainder: %v", rest)
	}
	must(s.LabelTraces(popen, SelectUnlabeled(), Bad))
	if must(s.ConceptState(popen)) != StateFullyLabeled {
		t.Errorf("popen concept not fully labeled")
	}

	// The fopen traces remain; label them via the top concept.
	top := s.Lattice().Top()
	must(s.LabelTraces(top, SelectUnlabeled(), Bad))
	if !s.Done() {
		t.Fatal("session not done after labeling everything")
	}

	// Step 2b/3: collect the good traces. There are three classes (v0/v6
	// collapse), four traces total.
	good := s.TracesWith(Good)
	if good.NumClasses() != 3 || good.Total() != 4 {
		t.Fatalf("good: %d classes, %d total", good.NumClasses(), good.Total())
	}
	bad := s.TracesWith(Bad)
	if bad.Total() != 3 {
		t.Fatalf("bad total = %d", bad.Total())
	}
}

func TestLabelReplacement(t *testing.T) {
	s := newTestSession(t)
	top := s.Lattice().Top()
	must(s.LabelTraces(top, SelectAll(), Good))
	// Relabel the subset carrying "good" as "bad": every trace flips; no
	// trace ever has two labels.
	n := must(s.LabelTraces(top, SelectLabel(Good), Bad))
	if n != s.NumTraces() {
		t.Fatalf("relabeled %d, want %d", n, s.NumTraces())
	}
	for i := 0; i < s.NumTraces(); i++ {
		if s.Labels()[i] != Bad {
			t.Fatalf("trace %d label = %q", i, s.Labels()[i])
		}
	}
	// Labeling with the same label changes nothing.
	if n := must(s.LabelTraces(top, SelectAll(), Bad)); n != 0 {
		t.Errorf("no-op labeling changed %d", n)
	}
}

func TestConceptStatesPropagate(t *testing.T) {
	// Labeling a descendant partly labels ancestors; labeling an ancestor
	// fully labels descendants.
	s := newTestSession(t)
	popen := popenConcept(t, s)
	top := s.Lattice().Top()
	must(s.LabelTraces(popen, SelectAll(), Good))
	if must(s.ConceptState(top)) != StatePartlyLabeled {
		t.Errorf("top not partly labeled after descendant labeling")
	}
	must(s.LabelTraces(top, SelectAll(), Bad))
	for _, c := range s.Lattice().Concepts() {
		if must(s.ConceptState(c.ID)) != StateFullyLabeled {
			t.Errorf("concept %d not fully labeled after top labeling", c.ID)
		}
	}
}

func TestShowFA(t *testing.T) {
	s := newTestSession(t)
	popen := popenConcept(t, s)
	f, err := s.ShowFA(popen, SelectAll())
	if err != nil {
		t.Fatal(err)
	}
	if !f.Accepts(trace.ParseEvents("", "X = popen()", "pclose(X)")) {
		t.Error("summary FA rejects a concept trace")
	}
	if f.Accepts(trace.ParseEvents("", "X = fopen()", "pclose(X)")) {
		t.Error("summary FA accepts a trace outside the concept")
	}
}

func TestShowTransitionsNarrowing(t *testing.T) {
	s := newTestSession(t)
	popen := popenConcept(t, s)
	all := must(s.ShowTransitions(popen, SelectAll()))
	// Narrow to the eventually-good traces: shared transitions can only
	// grow (σ is antitone).
	var pcloseOnly Selector
	must(s.LabelTraces(popen, SelectAll(), Good))
	must(s.LabelTraces(popen, SelectUnlabeled(), Bad))
	pcloseOnly = SelectLabel(Good)
	narrowed := must(s.ShowTransitions(popen, pcloseOnly))
	if len(narrowed) < len(all) {
		t.Errorf("narrowed selection shares fewer transitions: %d < %d", len(narrowed), len(all))
	}
	if must(s.ShowTransitions(popen, SelectLabel("nonexistent"))) != nil {
		t.Error("empty selection should share no transitions")
	}
}

func TestShowTraces(t *testing.T) {
	s := newTestSession(t)
	top := s.Lattice().Top()
	if got := len(must(s.ShowTraces(top, SelectAll()))); got != 6 {
		t.Errorf("ShowTraces(top) = %d traces", got)
	}
}

func TestDescribeConcept(t *testing.T) {
	s := newTestSession(t)
	top := s.Lattice().Top()
	must(s.LabelTraces(top, SelectUnlabeled(), Good))
	desc := must(s.DescribeConcept(top))
	for _, want := range []string{"FullyLabeled", "trace class(es)", "good"} {
		if !strings.Contains(desc, want) {
			t.Errorf("DescribeConcept missing %q in:\n%s", want, desc)
		}
	}
}

func TestFocus(t *testing.T) {
	s := newTestSession(t)
	top := s.Lattice().Top()
	// Focus the whole session on a seed-order FA for pclose: traces with
	// pclose separate from traces without it... pclose must occur, so focus
	// only applies to traces containing pclose; instead use unordered over
	// the popen-only alphabet to split by fread/fwrite usage.
	sub, err := s.Focus(top, SelectAll(), fa.FromTraces(violationSet().Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	ss := sub.Session()
	if ss.NumTraces() != s.NumTraces() {
		t.Fatalf("focus dropped traces: %d vs %d", ss.NumTraces(), s.NumTraces())
	}
	must(ss.LabelTraces(ss.Lattice().Top(), SelectAll(), Good))
	changed := must(sub.End())
	if changed != s.NumTraces() {
		t.Fatalf("End changed %d labels, want %d", changed, s.NumTraces())
	}
	if !s.Done() {
		t.Error("parent not done after focus merge")
	}
}

func TestFocusCarriesLabelsIn(t *testing.T) {
	s := newTestSession(t)
	top := s.Lattice().Top()
	popen := popenConcept(t, s)
	must(s.LabelTraces(popen, SelectAll(), Good))
	sub, err := s.Focus(top, SelectAll(), s.Ref())
	if err != nil {
		t.Fatal(err)
	}
	goodIn := 0
	for i := 0; i < sub.Session().NumTraces(); i++ {
		if sub.Session().Labels()[i] == Good {
			goodIn++
		}
	}
	if goodIn != len(must(s.Select(popen, SelectLabel(Good)))) {
		t.Errorf("focus carried %d good labels", goodIn)
	}
	// No changes in sub: End reports zero.
	if changed := must(sub.End()); changed != 0 {
		t.Errorf("End with no sub changes reported %d", changed)
	}
}

func TestFocusEmptySelection(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Focus(s.Lattice().Top(), SelectLabel("none"), s.Ref()); err == nil {
		t.Fatal("Focus on empty selection succeeded")
	}
}

func TestMultipleGoodLabels(t *testing.T) {
	// Section 2.2: distinct good labels (good fopen / good popen) keep the
	// relearning sets apart.
	s := newTestSession(t)
	for i := 0; i < s.NumTraces(); i++ {
		key := s.Representatives()[i].Key()
		switch {
		case strings.Contains(key, "popen()") && strings.Contains(key, "pclose"):
			s.labels[i] = Label("good popen")
		case strings.Contains(key, "fopen"):
			s.labels[i] = Label("good fopen")
		default:
			s.labels[i] = Bad
		}
	}
	used := s.UsedLabels()
	if len(used) != 3 {
		t.Fatalf("UsedLabels = %v", used)
	}
	if s.TracesWith("good popen").Total() != 4 {
		t.Errorf("good popen total = %d", s.TracesWith("good popen").Total())
	}
	if s.TracesWith("good fopen").Total() != 2 {
		t.Errorf("good fopen total = %d", s.TracesWith("good fopen").Total())
	}
}

func TestStateString(t *testing.T) {
	if !strings.Contains(StateUnlabeled.String(), "green") ||
		!strings.Contains(StatePartlyLabeled.String(), "yellow") ||
		!strings.Contains(StateFullyLabeled.String(), "red") {
		t.Error("state colors wrong")
	}
}

// must unwraps a (value, error) pair, panicking on error; these tests only
// use IDs the checked accessors accept.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
