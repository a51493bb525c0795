package concept

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// animals builds the context of Figure 9 (after Siff's thesis): animals as
// objects, descriptive adjectives as attributes.
func animals() *Context {
	objs := []string{"cat", "dog", "gibbon", "dolphin", "frog"}
	attrs := []string{"fourlegged", "haircovered", "intelligent", "marine", "thumbed"}
	c := NewContext(objs, attrs)
	rel := map[string][]string{
		"cat":     {"fourlegged", "haircovered"},
		"dog":     {"fourlegged", "haircovered", "intelligent"},
		"gibbon":  {"haircovered", "intelligent", "thumbed"},
		"dolphin": {"marine", "intelligent"},
		"frog":    {"fourlegged", "marine"},
	}
	idxO := map[string]int{}
	for i, o := range objs {
		idxO[o] = i
	}
	idxA := map[string]int{}
	for i, a := range attrs {
		idxA[a] = i
	}
	for o, as := range rel {
		for _, a := range as {
			c.Relate(idxO[o], idxA[a])
		}
	}
	return c
}

func TestContextBasics(t *testing.T) {
	c := animals()
	if c.NumObjects() != 5 || c.NumAttributes() != 5 {
		t.Fatalf("context shape %dx%d", c.NumObjects(), c.NumAttributes())
	}
	if !c.Has(0, 0) || c.Has(0, 3) {
		t.Error("Has wrong")
	}
	if c.ObjectName(2) != "gibbon" || c.AttributeName(4) != "thumbed" {
		t.Error("names wrong")
	}
}

func TestRelateOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Relate out of range did not panic")
		}
	}()
	animals().Relate(99, 0)
}

func TestSigmaTau(t *testing.T) {
	c := animals()
	// σ({cat, dog}) = {fourlegged, haircovered}.
	x := bitset.FromSlice([]int{0, 1})
	if got := c.Sigma(x).String(); got != "{0, 1}" {
		t.Errorf("Sigma = %s", got)
	}
	// τ({intelligent}) = {dog, gibbon, dolphin}.
	y := bitset.FromSlice([]int{2})
	if got := c.Tau(y).String(); got != "{1, 2, 3}" {
		t.Errorf("Tau = %s", got)
	}
	// σ(∅) = all attributes; τ(∅) = all objects.
	if c.Sigma(&bitset.Set{}).Len() != 5 || c.Tau(&bitset.Set{}).Len() != 5 {
		t.Error("empty-set conventions wrong")
	}
	// Similarity: |σ({cat, dog})| = 2 ≥ |σ({cat, dog, gibbon})| = 1.
	if c.Similarity(x) != 2 {
		t.Errorf("Similarity = %d", c.Similarity(x))
	}
}

func TestLatticeAnimals(t *testing.T) {
	c := animals()
	l := Build(c)
	// Every node must be a formal concept.
	for _, cc := range l.Concepts() {
		if !c.IsConcept(cc.Extent, cc.Intent) {
			t.Errorf("c%d (%s, %s) is not a concept", cc.ID, cc.Extent, cc.Intent)
		}
	}
	// Top extent is all objects; bottom intent is all attributes.
	if l.Concept(l.Top()).Extent.Len() != 5 {
		t.Errorf("top extent = %s", l.Concept(l.Top()).Extent)
	}
	if l.Concept(l.Bottom()).Intent.Len() != 5 {
		t.Errorf("bottom intent = %s", l.Concept(l.Bottom()).Intent)
	}
	// No duplicate intents.
	seen := map[string]bool{}
	for _, cc := range l.Concepts() {
		k := cc.Intent.Key()
		if seen[k] {
			t.Errorf("duplicate intent %s", cc.Intent)
		}
		seen[k] = true
	}
	// The concept for {haircovered, intelligent} has extent {dog, gibbon}.
	id, ok := l.Find(bitset.FromSlice([]int{1, 2}))
	if !ok {
		t.Fatal("Find not ok on own lattice")
	}
	got := l.Concept(id)
	if got.Extent.String() != "{1, 2}" || got.Intent.String() != "{1, 2}" {
		t.Errorf("Find({dog,gibbon}) = (%s, %s)", got.Extent, got.Intent)
	}
}

func TestLatticeOrderAndCovers(t *testing.T) {
	l := Build(animals())
	for _, c := range l.Concepts() {
		for _, p := range l.Parents(c.ID) {
			if !l.Leq(c.ID, p) {
				t.Errorf("child c%d not ≤ parent c%d", c.ID, p)
			}
			if l.Concept(p).Extent.Len() <= c.Extent.Len() {
				t.Errorf("parent extent not larger for c%d -> c%d", c.ID, p)
			}
			// Cover: no concept strictly between.
			for _, mid := range l.Concepts() {
				if mid.ID == c.ID || mid.ID == p {
					continue
				}
				if c.Extent.ProperSubsetOf(mid.Extent) && mid.Extent.ProperSubsetOf(l.Concept(p).Extent) {
					t.Errorf("c%d between c%d and its cover c%d", mid.ID, c.ID, p)
				}
			}
		}
		// children/parents are mirror images.
		for _, ch := range l.Children(c.ID) {
			found := false
			for _, p := range l.Parents(ch) {
				if p == c.ID {
					found = true
				}
			}
			if !found {
				t.Errorf("children/parents asymmetry at c%d/c%d", c.ID, ch)
			}
		}
	}
}

func TestSimilarityMonotone(t *testing.T) {
	// Key property from Section 3.1: X0 ⊆ X1 implies sim(X0) ≥ sim(X1).
	c := animals()
	l := Build(c)
	for _, a := range l.Concepts() {
		for _, b := range l.Concepts() {
			if a.Extent.SubsetOf(b.Extent) {
				if c.Similarity(a.Extent) < c.Similarity(b.Extent) {
					t.Errorf("similarity not antitone: c%d ⊆ c%d", a.ID, b.ID)
				}
				// Superset lattice on attributes: intent(b) ⊆ intent(a).
				if !b.Intent.SubsetOf(a.Intent) {
					t.Errorf("intents not reversed for c%d ⊆ c%d", a.ID, b.ID)
				}
			}
		}
	}
}

func TestFindForeignInputsNoPanic(t *testing.T) {
	l := Build(animals())
	// Object bits beyond the context's object range: a set from a bigger,
	// foreign context. Must report ok=false, not panic.
	foreign := bitset.FromSlice([]int{0, l.Context().NumObjects() + 5})
	if id, ok := l.Find(foreign); ok {
		t.Errorf("Find(foreign set) = %d, ok=true; want ok=false", id)
	}
	// A lattice whose index no longer matches its context: simulate by
	// building from a sub-context and asking about a row the index lacks.
	small := NewContext([]string{"o0", "o1"}, []string{"a0", "a1"})
	small.Relate(0, 0)
	stale := Build(small)
	small.Relate(1, 1) // mutate the context after the build: stale index
	if id, ok := stale.Find(bitset.FromSlice([]int{1})); ok {
		if stale.Concept(id) == nil {
			t.Error("stale Find returned ok with nil concept")
		}
	} // ok=false is the expected outcome; ok=true is fine only if still closed
}

func TestMeetJoinBadIDs(t *testing.T) {
	l := Build(animals())
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {l.Len(), 0}, {0, l.Len() + 7}} {
		if id, ok := l.Meet(pair[0], pair[1]); ok {
			t.Errorf("Meet(%d,%d) = %d, ok=true; want ok=false", pair[0], pair[1], id)
		}
		if id, ok := l.Join(pair[0], pair[1]); ok {
			t.Errorf("Join(%d,%d) = %d, ok=true; want ok=false", pair[0], pair[1], id)
		}
	}
}

func TestMeetJoin(t *testing.T) {
	l := Build(animals())
	for _, a := range l.Concepts() {
		for _, b := range l.Concepts() {
			m, mok := l.Meet(a.ID, b.ID)
			j, jok := l.Join(a.ID, b.ID)
			if !mok || !jok {
				t.Fatalf("Meet/Join(c%d,c%d) not ok on valid IDs", a.ID, b.ID)
			}
			if !l.Leq(m, a.ID) || !l.Leq(m, b.ID) {
				t.Fatalf("meet c%d of c%d,c%d not a lower bound", m, a.ID, b.ID)
			}
			if !l.Leq(a.ID, j) || !l.Leq(b.ID, j) {
				t.Fatalf("join c%d of c%d,c%d not an upper bound", j, a.ID, b.ID)
			}
			// Greatest/least: every other bound is below/above.
			for _, x := range l.Concepts() {
				if l.Leq(x.ID, a.ID) && l.Leq(x.ID, b.ID) && !l.Leq(x.ID, m) {
					t.Fatalf("meet not greatest: c%d", x.ID)
				}
				if l.Leq(a.ID, x.ID) && l.Leq(b.ID, x.ID) && !l.Leq(j, x.ID) {
					t.Fatalf("join not least: c%d", x.ID)
				}
			}
		}
	}
}

func TestAttributeObjectConcepts(t *testing.T) {
	c := animals()
	l := Build(c)
	for a := 0; a < c.NumAttributes(); a++ {
		id := l.AttributeConcept(a)
		if !l.Concept(id).Intent.Has(a) {
			t.Errorf("attribute concept of %d lacks the attribute", a)
		}
		// Maximality: no parent's intent contains a.
		for _, p := range l.Parents(id) {
			if l.Concept(p).Intent.Has(a) {
				t.Errorf("attribute %d not at maximal concept", a)
			}
		}
	}
	for o := 0; o < c.NumObjects(); o++ {
		id := l.ObjectConcept(o)
		if !l.Concept(id).Extent.Has(o) {
			t.Errorf("object concept of %d lacks the object", o)
		}
		for _, ch := range l.Children(id) {
			if l.Concept(ch).Extent.Has(o) {
				t.Errorf("object %d not at minimal concept", o)
			}
		}
	}
}

func TestTopDownOrder(t *testing.T) {
	l := Build(animals())
	order := l.TopDownOrder()
	if len(order) != l.Len() {
		t.Fatalf("TopDownOrder covers %d of %d", len(order), l.Len())
	}
	if order[0] != l.Top() {
		t.Error("TopDownOrder does not start at top")
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, c := range l.Concepts() {
		for _, p := range l.Parents(c.ID) {
			if pos[p] > pos[c.ID] {
				t.Errorf("parent c%d visited after child c%d", p, c.ID)
			}
		}
	}
}

func TestNaiveMatchesIncremental(t *testing.T) {
	a := Build(animals())
	b := BuildNaive(animals())
	if !equalLattices(a, b) {
		t.Fatalf("builders disagree:\nincremental:\n%s\nnaive:\n%s", a, b)
	}
}

func TestEmptyAndDegenerateContexts(t *testing.T) {
	// No objects: single concept, top == bottom.
	l := Build(NewContext(nil, []string{"a", "b"}))
	if l.Len() != 1 || l.Top() != l.Bottom() {
		t.Errorf("empty-object lattice: %d concepts", l.Len())
	}
	// No attributes: single concept holding all objects.
	c := NewContext([]string{"x", "y"}, nil)
	l = Build(c)
	if l.Len() != 1 || l.Concept(l.Top()).Extent.Len() != 2 {
		t.Errorf("empty-attribute lattice wrong: %s", l)
	}
	// Identical rows collapse.
	c = NewContext([]string{"x", "y"}, []string{"a"})
	c.Relate(0, 0)
	c.Relate(1, 0)
	l = Build(c)
	// Concepts: ({x,y},{a}) and bottom ({x,y},{a})? σ({x,y})={a} so the
	// full-extent concept has intent {a}; bottom intent {a} too — they are
	// the same concept. Expect exactly 1.
	if l.Len() != 1 {
		t.Errorf("identical rows: %d concepts, want 1", l.Len())
	}
	if !equalLattices(Build(c), BuildNaive(c)) {
		t.Error("builders disagree on degenerate context")
	}
}

func TestContextString(t *testing.T) {
	s := animals().String()
	if !strings.Contains(s, "gibbon") || !strings.Contains(s, "x") {
		t.Errorf("context table = %q", s)
	}
}

func TestLatticeDot(t *testing.T) {
	dot := Build(animals()).Dot("animals")
	for _, want := range []string{"digraph", "thumbed", "gibbon", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot missing %q", want)
		}
	}
}

func TestTree(t *testing.T) {
	l := Build(animals())
	out := l.Tree(nil)
	// Every concept appears exactly once expanded (as "cN: "), and the
	// root is the top concept.
	for _, c := range l.Concepts() {
		marker := fmt.Sprintf("c%d: ", c.ID)
		if n := strings.Count(out, marker); n != 1 {
			t.Errorf("concept %d expanded %d times:\n%s", c.ID, n, out)
		}
	}
	if !strings.HasPrefix(out, fmt.Sprintf("c%d: ", l.Top())) {
		t.Errorf("tree does not start at top:\n%s", out)
	}
	// DAG back-references appear for multi-parent concepts.
	if !strings.Contains(out, "↟") {
		t.Errorf("expected back-references in a non-tree lattice:\n%s", out)
	}
	// Custom labels are used.
	custom := l.Tree(func(id int) string { return "XLABELX" })
	if !strings.Contains(custom, "XLABELX") {
		t.Error("custom label ignored")
	}
}

// equalLattices reports whether two lattices over the same context have the same
// concepts (extent/intent pairs) and the same cover relation, regardless of
// concept numbering.
func equalLattices(a, b *Lattice) bool {
	if a.Len() != b.Len() {
		return false
	}
	// Map concepts by intent key.
	bByIntent := map[string]*Concept{}
	for _, c := range b.concepts {
		bByIntent[c.Intent.Key()] = c
	}
	for _, ca := range a.concepts {
		cb, ok := bByIntent[ca.Intent.Key()]
		if !ok || !ca.Extent.Equal(cb.Extent) {
			return false
		}
		// Compare parent sets by intent keys.
		pa := map[string]bool{}
		for _, p := range a.parents[ca.ID] {
			pa[a.concepts[p].Intent.Key()] = true
		}
		if len(pa) != len(b.parents[cb.ID]) {
			return false
		}
		for _, p := range b.parents[cb.ID] {
			if !pa[b.concepts[p].Intent.Key()] {
				return false
			}
		}
	}
	return true
}
