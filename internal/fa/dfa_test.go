package fa_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/specs"
	"repro/internal/trace"
)

var testAlpha = []event.Event{
	event.MustParse("a()"),
	event.MustParse("b()"),
	event.MustParse("X = c(Y)"),
}

// randomNFA builds a small random automaton over testAlpha, optionally
// with wildcard edges, mirroring the fuzz decoding in internal/fa.
func randomNFA(rng *rand.Rand, wildcards bool) *fa.FA {
	b := fa.NewBuilder("rand")
	n := 1 + rng.Intn(4)
	states := b.States(n)
	b.Start(states[rng.Intn(n)])
	for s := 0; s < n; s++ {
		if rng.Intn(3) == 0 {
			b.Accept(states[s])
		}
	}
	edges := rng.Intn(8)
	for i := 0; i < edges; i++ {
		from := states[rng.Intn(n)]
		to := states[rng.Intn(n)]
		if wildcards && rng.Intn(6) == 0 {
			b.WildcardEdge(from, to)
		} else {
			b.Edge(from, testAlpha[rng.Intn(len(testAlpha))], to)
		}
	}
	if rng.Intn(4) == 0 {
		b.Accept(states[rng.Intn(n)])
	}
	return b.MustBuild()
}

// allTraces enumerates every trace over the alphabet up to maxLen — the
// brute-force bounded oracle the semantic operations are pinned against.
func allTraces(alpha []event.Event, maxLen int) []trace.Trace {
	out := []trace.Trace{trace.New("t")}
	level := [][]event.Event{nil}
	for l := 0; l < maxLen; l++ {
		var next [][]event.Event
		for _, prefix := range level {
			for _, e := range alpha {
				evs := append(append([]event.Event(nil), prefix...), e)
				next = append(next, evs)
				out = append(out, trace.New("t", evs...))
			}
		}
		level = next
	}
	return out
}

// TestCompileMatchesSim checks Determinize (the DFA compile) against the
// NFA simulator on every short trace over the automaton's alphabet.
func TestCompileMatchesSim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	oracle := allTraces(testAlpha, 4)
	for iter := 0; iter < 200; iter++ {
		f := randomNFA(rng, true)
		d, err := fa.Determinize(f, f.Alphabet())
		if err != nil {
			t.Fatalf("iter %d: Determinize: %v", iter, err)
		}
		for _, tr := range oracle {
			if !inAlphabet(tr, f.Alphabet()) {
				continue
			}
			if got, want := d.Accepts(tr), f.Accepts(tr); got != want {
				t.Fatalf("iter %d: DFA.Accepts(%q) = %v, Sim says %v on\n%s",
					iter, tr.Key(), got, want, f)
			}
		}
	}
}

func inAlphabet(tr trace.Trace, alpha []event.Event) bool {
	in := map[string]bool{}
	for _, e := range alpha {
		in[e.String()] = true
	}
	for _, e := range tr.Events {
		if !in[e.String()] {
			return false
		}
	}
	return true
}

func TestComplementFlipsMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	oracle := allTraces(testAlpha, 4)
	for iter := 0; iter < 100; iter++ {
		f := randomNFA(rng, false)
		d, err := fa.Determinize(f, testAlpha)
		if err != nil {
			t.Fatalf("Determinize: %v", err)
		}
		comp := d.Complement()
		for _, tr := range oracle {
			if comp.Accepts(tr) == d.Accepts(tr) {
				t.Fatalf("iter %d: complement agrees with original on %q", iter, tr.Key())
			}
		}
	}
}

func TestProductIntersects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	oracle := allTraces(testAlpha, 4)
	for iter := 0; iter < 100; iter++ {
		f := randomNFA(rng, false)
		g := randomNFA(rng, false)
		df, err := fa.Determinize(f, testAlpha)
		if err != nil {
			t.Fatalf("Determinize: %v", err)
		}
		dg, err := fa.Determinize(g, testAlpha)
		if err != nil {
			t.Fatalf("Determinize: %v", err)
		}
		prod, err := fa.Product(df, dg, func(a, b bool) bool { return a && b })
		if err != nil {
			t.Fatalf("Product: %v", err)
		}
		for _, tr := range oracle {
			want := df.Accepts(tr) && dg.Accepts(tr)
			if got := prod.Accepts(tr); got != want {
				t.Fatalf("iter %d: product(%q) = %v, want %v", iter, tr.Key(), got, want)
			}
		}
	}
}

func TestWitnessIsShortestAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 200; iter++ {
		f := randomNFA(rng, false)
		d, err := fa.Determinize(f, testAlpha)
		if err != nil {
			t.Fatalf("Determinize: %v", err)
		}
		w, ok := d.Witness()
		enum := f.Enumerate(8, 1)
		if !ok {
			if len(enum) > 0 {
				t.Fatalf("iter %d: Witness says empty, Enumerate found %q on\n%s",
					iter, enum[0].Key(), f)
			}
			continue
		}
		if !f.Accepts(w) {
			t.Fatalf("iter %d: witness %q rejected by the automaton", iter, w.Key())
		}
		if len(enum) == 0 {
			// Shortest accepted word longer than the enumeration bound —
			// only possible when the witness itself is longer too.
			if w.Len() <= 8 {
				t.Fatalf("iter %d: Enumerate(8) found nothing but witness %q is short", iter, w.Key())
			}
			continue
		}
		if w.Len() != enum[0].Len() {
			t.Fatalf("iter %d: witness %q has length %d, shortest accepted is %q",
				iter, w.Key(), w.Len(), enum[0].Key())
		}
	}
}

func TestIncludesSelfAndOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 150; iter++ {
		a := randomNFA(rng, iter%2 == 0)
		b := randomNFA(rng, iter%3 == 0)
		if inc, w, err := fa.Includes(a, a); err != nil || !inc || w.Len() != 0 {
			t.Fatalf("iter %d: Includes(a, a) = %v, %q, %v", iter, inc, w.Key(), err)
		}
		inc, w, err := fa.Includes(a, b)
		if err != nil {
			t.Fatalf("iter %d: Includes: %v", iter, err)
		}
		if inc {
			// Bounded oracle: every short accepted trace of a must be
			// accepted by b.
			for _, tr := range a.Enumerate(6, 100) {
				if !b.Accepts(tr) {
					t.Fatalf("iter %d: Includes says ⊆ but %q separates\n%s\n%s",
						iter, tr.Key(), a, b)
				}
			}
			continue
		}
		if !a.Accepts(w) || b.Accepts(w) {
			t.Fatalf("iter %d: witness %q not separating (a: %v, b: %v)",
				iter, w.Key(), a.Accepts(w), b.Accepts(w))
		}
		// Shortest: no bounded-enumerated separating trace may be shorter.
		if w.Len() > 0 {
			for _, tr := range a.Enumerate(w.Len()-1, 200) {
				if tr.Len() < w.Len() && !b.Accepts(tr) {
					t.Fatalf("iter %d: witness %q not shortest, %q is shorter",
						iter, w.Key(), tr.Key())
				}
			}
		}
	}
}

func TestEquivalentMatchesOpsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	type pair struct{ a, b *fa.FA }
	var pairs []pair
	for iter := 0; iter < 150; iter++ {
		pairs = append(pairs, pair{randomNFA(rng, false), randomNFA(rng, false)})
	}
	for _, sp := range corpus() {
		pairs = append(pairs, pair{sp.FA, buggy(t, sp)}, pair{sp.FA, sp.FA})
	}
	for i, p := range pairs {
		want, err := fa.CanonicalEquivalent(p.a, p.b)
		if err != nil {
			t.Fatalf("canonical oracle: %v", err)
		}
		got, err := fa.Equivalent(p.a, p.b)
		if err != nil {
			t.Fatalf("Equivalent: %v", err)
		}
		if got != want {
			t.Fatalf("pair %d: Equivalent = %v, canonical oracle = %v on\n%s\n%s",
				i, got, want, p.a, p.b)
		}
	}
}

func TestEquivalentSeesWildcardOnlyDifference(t *testing.T) {
	b1 := fa.NewBuilder("anything")
	s1 := b1.State()
	b1.Start(s1)
	b1.Accept(s1)
	b1.WildcardEdge(s1, s1)
	anything := b1.MustBuild()

	b2 := fa.NewBuilder("only-a")
	s2 := b2.State()
	b2.Start(s2)
	b2.Accept(s2)
	b2.Edge(s2, event.MustParse("a()"), s2)
	onlyA := b2.MustBuild()

	eq, err := fa.Equivalent(anything, onlyA)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if eq {
		t.Fatalf("wildcard loop reported equivalent to a()-loop")
	}
	inc, w, err := fa.Includes(anything, onlyA)
	if err != nil || inc {
		t.Fatalf("Includes = %v, %v", inc, err)
	}
	if !anything.Accepts(w) || onlyA.Accepts(w) {
		t.Fatalf("witness %q does not separate the wildcard difference", w.Key())
	}
	if got := w.Key(); got != "other()" {
		t.Fatalf("expected the fresh other() symbol as witness, got %q", got)
	}
}

func TestDeterminizeDeterministicAndEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		f := randomNFA(rng, false)
		d, err := fa.Determinize(f, f.Alphabet())
		if err != nil {
			t.Fatalf("Determinize: %v", err)
		}
		det := d.FA(f.Name()).Trim()
		if !det.IsDeterministic() {
			t.Fatalf("iter %d: Determinize output is nondeterministic:\n%s", iter, det)
		}
		eq, err := fa.Equivalent(f, det)
		if err != nil {
			t.Fatalf("Equivalent: %v", err)
		}
		if !eq {
			t.Fatalf("iter %d: determinized language differs on\n%s", iter, f)
		}
	}
}

// TestMinimizeMatchesMooreMinimize pins Hopcroft minimization to the
// Moore oracle byte for byte (fa.Write), on random NFAs and on the
// automata the specification corpus is derived from.
func TestMinimizeMatchesMooreMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var inputs []*fa.FA
	for iter := 0; iter < 1000; iter++ {
		inputs = append(inputs, randomNFA(rng, false))
	}
	inputs = append(inputs, corpusNFAs()...)
	for _, sp := range corpus() {
		inputs = append(inputs, fa.Union(sp.FA, buggy(t, sp)))
	}
	for i, f := range inputs {
		min, err := fa.Minimize(f)
		if err != nil {
			t.Fatalf("Minimize: %v", err)
		}
		moore, err := fa.MooreMinimize(f)
		if err != nil {
			t.Fatalf("Moore oracle: %v", err)
		}
		if got, want := writeFA(t, min), writeFA(t, moore); got != want {
			t.Fatalf("input %d: Hopcroft gives\n%s\nMoore gives\n%s\non\n%s", i, got, want, f)
		}
		if !min.IsDeterministic() {
			t.Fatalf("input %d: minimized automaton is nondeterministic", i)
		}
		if i >= 200 {
			continue // language checks on a sample; the bytes above cover all
		}
		if eq, err := fa.Equivalent(f, min); err != nil || !eq {
			t.Fatalf("input %d: minimized language differs (%v, %v)", i, eq, err)
		}
	}
}

func writeFA(t *testing.T, f *fa.FA) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fa.Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// corpus is every shipped specification: specs.All() plus specs.Stdio().
func corpus() []specs.Spec { return append(specs.All(), specs.Stdio()) }

// buggy derives sp's seeded buggy specification.
func buggy(t testing.TB, sp specs.Spec) *fa.FA {
	t.Helper()
	f, err := specs.BuggyFA(sp.Name, sp.Model)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// corpusNFAs rebuilds the automata the corpus FAs are minimized from, in
// the specs package's construction: one chain per scenario template with
// bounded repetitions as self-loops, for the good templates alone and
// for every template.
func corpusNFAs() []*fa.FA {
	var out []*fa.FA
	for _, sp := range corpus() {
		for _, goodOnly := range []bool{true, false} {
			b := fa.NewBuilder(sp.Name)
			for _, sc := range sp.Model.Scenarios {
				if goodOnly && !sc.Good {
					continue
				}
				cur := b.State()
				b.Start(cur)
				for _, ev := range sc.Events {
					for i := 0; i < ev.Min; i++ {
						next := b.State()
						b.EdgeStr(cur, ev.Sym, next)
						cur = next
					}
					if ev.Max > ev.Min {
						b.EdgeStr(cur, ev.Sym, cur)
					}
				}
				b.Accept(cur)
			}
			out = append(out, b.MustBuild())
		}
	}
	return out
}

func TestEquivalentStatesFindsMergeablePair(t *testing.T) {
	b := fa.NewBuilder("dup")
	s := b.States(4)
	b.Start(s[0])
	b.Accept(s[3])
	b.Edge(s[0], event.MustParse("a()"), s[1])
	b.Edge(s[0], event.MustParse("b()"), s[2])
	b.Edge(s[1], event.MustParse("X = c(Y)"), s[3])
	b.Edge(s[2], event.MustParse("X = c(Y)"), s[3])
	f := b.MustBuild()

	groups, err := fa.EquivalentStates(f)
	if err != nil {
		t.Fatalf("EquivalentStates: %v", err)
	}
	if len(groups) != 1 || len(groups[0]) != 2 || groups[0][0] != 1 || groups[0][1] != 2 {
		t.Fatalf("expected one mergeable group [1 2], got %v", groups)
	}

	// The minimal automaton must not report anything.
	min, err := fa.Minimize(f)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	groups, err = fa.EquivalentStates(min)
	if err != nil {
		t.Fatalf("EquivalentStates(min): %v", err)
	}
	if len(groups) != 0 {
		t.Fatalf("minimal automaton reports mergeable states: %v", groups)
	}
}

func TestEquivalentStatesRejectsNondeterministic(t *testing.T) {
	b := fa.NewBuilder("nd")
	s := b.States(2)
	b.Start(s[0])
	b.Accept(s[1])
	b.Edge(s[0], event.MustParse("a()"), s[0])
	b.Edge(s[0], event.MustParse("a()"), s[1])
	if _, err := fa.EquivalentStates(b.MustBuild()); err == nil {
		t.Fatal("expected an error for a nondeterministic automaton")
	}
}

// TestCompileRejectsNarrowAlphabet checks that Determinize refuses an
// alphabet missing one of the automaton's labels, or holding the wildcard.
func TestCompileRejectsNarrowAlphabet(t *testing.T) {
	b := fa.NewBuilder("wide")
	s := b.States(2)
	b.Start(s[0])
	b.Accept(s[1])
	b.Edge(s[0], event.MustParse("a()"), s[1])
	b.Edge(s[0], event.MustParse("b()"), s[1])
	f := b.MustBuild()
	if _, err := fa.Determinize(f, []event.Event{event.MustParse("a()")}); err == nil {
		t.Fatal("expected an error for an alphabet that misses a label")
	}
	if _, err := fa.Determinize(f, []event.Event{fa.Wildcard()}); err == nil {
		t.Fatal("expected an error for a wildcard in the alphabet")
	}
}
