package cable

import (
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/trace"
)

// fontSession builds a session over order-sensitive XSetFont-style traces
// clustered with the unordered FA, which mixes the good (font before draw)
// and bad (font after draw) orders.
func fontSession(t *testing.T) *Session {
	t.Helper()
	set := trace.NewSet(
		trace.ParseEvents("g1", "X = XCreateGC()", "XSetFont(X)", "XDrawString(X)", "XFreeGC(X)"),
		trace.ParseEvents("g2", "X = XCreateGC()", "XSetFont(X)", "XDrawString(X)", "XDrawString(X)", "XFreeGC(X)"),
		trace.ParseEvents("b1", "X = XCreateGC()", "XDrawString(X)", "XSetFont(X)", "XFreeGC(X)"),
	)
	s, err := NewSession(set, fa.FromTraces(set.Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuggestFocusSeparatesOrders(t *testing.T) {
	s := fontSession(t)
	// The user labels one good and one bad trace; they share all events,
	// so the unordered lattice cannot separate them.
	s.LabelTrace(0, Good)
	s.LabelTrace(2, Bad)
	// Find the concept containing both (they have identical event
	// supports, so γ(g1) contains b1 too).
	id := s.Lattice().ObjectConcept(0)
	if !s.Lattice().Concept(id).Extent.Has(2) {
		t.Fatalf("fixture mismatch: g1 and b1 not in one concept")
	}
	sug, err := s.SuggestFocus(id)
	if err != nil {
		t.Fatal(err)
	}
	// Order matters here, so the suggestion must be order-aware (a seed
	// template), and focusing with it must yield a session where the
	// labeled traces separate.
	if !strings.HasPrefix(sug.Template, "seed ") {
		t.Errorf("suggested %q, expected a seed-order template", sug.Template)
	}
	fc, err := s.Focus(id, SelectAll(), sug.Ref)
	if err != nil {
		t.Fatal(err)
	}
	sub := fc.Session()
	// In the sub-lattice, g1 and b1 must have different object concepts.
	var gi, bi int = -1, -1
	for i := 0; i < sub.NumTraces(); i++ {
		switch sub.Representatives()[i].ID {
		case "g1":
			gi = i
		case "b1":
			bi = i
		}
	}
	if gi < 0 || bi < 0 {
		t.Fatal("focused session lost traces")
	}
	if sub.Lattice().ObjectConcept(gi) == sub.Lattice().ObjectConcept(bi) {
		t.Error("suggested template does not separate the labeled traces")
	}
}

func TestSuggestFocusUnorderedSufficesWhenEventsDiffer(t *testing.T) {
	// Good and bad differ in which events occur: the cheapest template
	// (unordered) already separates, and must be suggested first.
	set := trace.NewSet(
		trace.ParseEvents("g", "X = open()", "close(X)"),
		trace.ParseEvents("b", "X = open()"),
	)
	// A one-path reference merging everything into the same row would be
	// needed to make this concept mixed; with FromTraces the traces already
	// differ, but SuggestFocus only requires the labels to disagree within
	// the chosen concept, so use the top concept.
	s, err := NewSession(set, fa.FromTraces(set.Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	s.LabelTrace(0, Good)
	s.LabelTrace(1, Bad)
	sug, err := s.SuggestFocus(s.Lattice().Top())
	if err != nil {
		t.Fatal(err)
	}
	if sug.Template != "unordered" {
		t.Errorf("suggested %q, want unordered", sug.Template)
	}
}

func TestSuggestFocusNotMixed(t *testing.T) {
	s := fontSession(t)
	if _, err := s.SuggestFocus(s.Lattice().Top()); err == nil {
		t.Error("SuggestFocus succeeded on an unlabeled concept")
	}
	s.LabelTrace(0, Good)
	if _, err := s.SuggestFocus(s.Lattice().Top()); err == nil {
		t.Error("SuggestFocus succeeded with a single label in use")
	}
}

func TestSuggestFocusHopeless(t *testing.T) {
	// Identical traces cannot be separated by any template; suggesting
	// must fail... but identical traces share a class, so construct the
	// even/odd foo case instead: same event support, orders
	// indistinguishable by any of the three templates.
	set := trace.NewSet(
		trace.ParseEvents("e2", "foo()", "foo()"),
		trace.ParseEvents("o3", "foo()", "foo()", "foo()"),
	)
	s, err := NewSession(set, fa.FromTraces(set.Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	s.LabelTrace(0, Good)
	s.LabelTrace(1, Bad)
	if _, err := s.SuggestFocus(s.Lattice().Top()); err == nil {
		t.Error("SuggestFocus claimed to separate foo-count parity")
	}
}
