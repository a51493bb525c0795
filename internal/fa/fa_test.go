package fa

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/trace"
)

// buggyStdio builds the specification of Figure 1: fclose may close a file
// pointer regardless of whether fopen or popen produced it.
func buggyStdio() *FA {
	b := NewBuilder("stdio-buggy")
	s := b.States(3)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "X = fopen()", s[1])
	b.EdgeStr(s[0], "X = popen()", s[1])
	b.EdgeStr(s[1], "fread(X)", s[1])
	b.EdgeStr(s[1], "fwrite(X)", s[1])
	b.EdgeStr(s[1], "fclose(X)", s[2])
	return b.MustBuild()
}

// fixedStdio builds the corrected specification of Figure 6.
func fixedStdio() *FA {
	b := NewBuilder("stdio-fixed")
	s := b.States(4)
	b.Start(s[0])
	b.Accept(s[3])
	b.EdgeStr(s[0], "X = fopen()", s[1])
	b.EdgeStr(s[1], "fread(X)", s[1])
	b.EdgeStr(s[1], "fwrite(X)", s[1])
	b.EdgeStr(s[1], "fclose(X)", s[3])
	b.EdgeStr(s[0], "X = popen()", s[2])
	b.EdgeStr(s[2], "fread(X)", s[2])
	b.EdgeStr(s[2], "fwrite(X)", s[2])
	b.EdgeStr(s[2], "pclose(X)", s[3])
	return b.MustBuild()
}

func tr(events ...string) trace.Trace { return trace.ParseEvents("", events...) }

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder("bad")
	s := b.State()
	b.Start(s)
	b.Edge(s, event.MustParse("f()"), State(7))
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range transition target")
	}
	b2 := NewBuilder("nostart")
	b2.State()
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build accepted automaton without start state")
	}
}

func TestDuplicateEdgesDeduped(t *testing.T) {
	b := NewBuilder("dup")
	s := b.States(2)
	b.Start(s[0])
	b.Accept(s[1])
	b.EdgeStr(s[0], "f()", s[1])
	b.EdgeStr(s[0], "f()", s[1])
	f := b.MustBuild()
	if f.NumTransitions() != 1 {
		t.Fatalf("NumTransitions = %d, want 1", f.NumTransitions())
	}
}

func TestAccepts(t *testing.T) {
	f := buggyStdio()
	cases := []struct {
		t    trace.Trace
		want bool
	}{
		{tr("X = fopen()", "fclose(X)"), true},
		{tr("X = popen()", "fclose(X)"), true}, // the bug: accepted
		{tr("X = fopen()", "fread(X)", "fwrite(X)", "fclose(X)"), true},
		{tr("X = fopen()"), false},              // no close
		{tr("X = popen()", "pclose(X)"), false}, // pclose not in language
		{tr("fclose(X)"), false},                // close before open
		{tr(), false},                           // empty not accepted
	}
	for _, c := range cases {
		if got := f.Accepts(c.t); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.t.Key(), got, c.want)
		}
	}
}

func TestRejectsAt(t *testing.T) {
	f := buggyStdio()
	if got := f.RejectsAt(tr("X = fopen()", "fclose(X)")); got != -1 {
		t.Errorf("RejectsAt accepted trace = %d, want -1", got)
	}
	if got := f.RejectsAt(tr("X = popen()", "pclose(X)")); got != 1 {
		t.Errorf("RejectsAt(pclose) = %d, want 1", got)
	}
	if got := f.RejectsAt(tr("X = fopen()", "fread(X)")); got != 2 {
		t.Errorf("RejectsAt(no close) = %d, want 2 (end of trace)", got)
	}
}

func TestExecuted(t *testing.T) {
	f := buggyStdio()
	// X = fopen(); fclose(X) executes exactly transitions 0 (fopen) and 4 (fclose).
	ex, ok := f.Executed(tr("X = fopen()", "fclose(X)"))
	if !ok {
		t.Fatal("Executed reported rejection for accepted trace")
	}
	if got := ex.String(); got != "{0, 4}" {
		t.Errorf("Executed = %s, want {0, 4}", got)
	}
	// Rejected trace: empty set, ok=false.
	ex, ok = f.Executed(tr("X = fopen()"))
	if ok || !ex.Empty() {
		t.Errorf("Executed on rejected trace = %s, ok=%v", ex, ok)
	}
	// fread and fwrite loops appear when used.
	ex, ok = f.Executed(tr("X = popen()", "fwrite(X)", "fread(X)", "fclose(X)"))
	if !ok || ex.String() != "{1, 2, 3, 4}" {
		t.Errorf("Executed = %s ok=%v, want {1, 2, 3, 4}", ex, ok)
	}
}

// TestExecutedInto pins ExecutedInto to Executed on a set that already
// holds elements: it clears the set first, leaves it empty on a rejected
// trace, and allocates nothing once the set covers the transitions.
func TestExecutedInto(t *testing.T) {
	f := buggyStdio()
	sim := f.Sim()
	out := bitset.FromSlice([]int{0, 1, 2, 3, 4, 5})
	for _, tc := range []trace.Trace{
		tr("X = popen()", "fwrite(X)", "fread(X)", "fclose(X)"),
		tr("X = fopen()", "fclose(X)"),
		tr("X = fopen()"),
	} {
		want, wantOK := f.Executed(tc)
		if ok := sim.ExecutedInto(out, tc); ok != wantOK || !out.Equal(want) {
			t.Errorf("ExecutedInto(%s) = %s, %v; want %s, %v", tc.Key(), out, ok, want, wantOK)
		}
	}
	accepted := tr("X = fopen()", "fclose(X)")
	if allocs := testing.AllocsPerRun(10, func() { sim.ExecutedInto(out, accepted) }); allocs != 0 {
		t.Errorf("ExecutedInto allocates %.1f objects per call, want 0", allocs)
	}
}

// TestTransitionString pins Transition.String to its fmt rendering.
func TestTransitionString(t *testing.T) {
	for _, tc := range []Transition{
		{From: 0, To: 1, Label: event.MustParse("X = fopen()")},
		{From: 12, To: 345678, Label: event.MustParse("fwrite(X, Y)")},
		{From: 3, To: 3, Label: Wildcard()},
	} {
		if got, want := tc.String(), fmt.Sprintf("s%d --%s--> s%d", int(tc.From), tc.Label, int(tc.To)); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestExecutedAmbiguous(t *testing.T) {
	// Two accepting runs through different transitions: both are executed.
	b := NewBuilder("amb")
	s := b.States(4)
	b.Start(s[0])
	b.Accept(s[3])
	b.EdgeStr(s[0], "a()", s[1])
	b.EdgeStr(s[0], "a()", s[2])
	b.EdgeStr(s[1], "b()", s[3])
	b.EdgeStr(s[2], "b()", s[3])
	f := b.MustBuild()
	ex, ok := f.Executed(tr("a()", "b()"))
	if !ok || ex.Len() != 4 {
		t.Errorf("Executed = %s, want all 4 transitions", ex)
	}
}

func TestExecutedExcludesDeadBranches(t *testing.T) {
	// A transition reachable on a prefix but not on any accepting run must
	// not be reported.
	b := NewBuilder("dead")
	s := b.States(4)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "a()", s[1])
	b.EdgeStr(s[1], "b()", s[2])
	b.EdgeStr(s[0], "a()", s[3]) // dead end: s3 has no b() edge
	f := b.MustBuild()
	ex, ok := f.Executed(tr("a()", "b()"))
	if !ok || ex.String() != "{0, 1}" {
		t.Errorf("Executed = %s, want {0, 1}", ex)
	}
}

func TestIsDeterministic(t *testing.T) {
	if !buggyStdio().IsDeterministic() {
		t.Error("buggyStdio should be deterministic")
	}
	b := NewBuilder("nd")
	s := b.States(3)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "a()", s[1])
	b.EdgeStr(s[0], "a()", s[2])
	if b.MustBuild().IsDeterministic() {
		t.Error("duplicate-label automaton reported deterministic")
	}
	b2 := NewBuilder("wild")
	w := b2.States(2)
	b2.Start(w[0])
	b2.Accept(w[1])
	b2.EdgeStr(w[0], "a()", w[1])
	b2.WildcardEdge(w[0], w[0])
	if b2.MustBuild().IsDeterministic() {
		t.Error("wildcard alongside explicit edge reported deterministic")
	}
}

func TestDeterminizePreservesLanguage(t *testing.T) {
	b := NewBuilder("nd")
	s := b.States(4)
	b.Start(s[0])
	b.Accept(s[3])
	b.EdgeStr(s[0], "a()", s[1])
	b.EdgeStr(s[0], "a()", s[2])
	b.EdgeStr(s[1], "b()", s[3])
	b.EdgeStr(s[2], "c()", s[3])
	f := b.MustBuild()
	d, err := Determinize(f, f.Alphabet())
	if err != nil {
		t.Fatal(err)
	}
	if !d.FA("det").IsDeterministic() {
		t.Fatal("Determinize returned nondeterministic automaton")
	}
	for _, c := range []struct {
		t    trace.Trace
		want bool
	}{
		{tr("a()", "b()"), true},
		{tr("a()", "c()"), true},
		{tr("a()"), false},
		{tr("b()"), false},
	} {
		if got := d.Accepts(c.t); got != c.want {
			t.Errorf("determinized Accepts(%q) = %v, want %v", c.t.Key(), got, c.want)
		}
	}
}

func TestMinimize(t *testing.T) {
	// Two redundant paths collapse: language (a b | a b) over a chain pair.
	b := NewBuilder("redundant")
	s := b.States(5)
	b.Start(s[0])
	b.Accept(s[3], s[4])
	b.EdgeStr(s[0], "a()", s[1])
	b.EdgeStr(s[0], "a()", s[2])
	b.EdgeStr(s[1], "b()", s[3])
	b.EdgeStr(s[2], "b()", s[4])
	f := b.MustBuild()
	m, err := Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 3 {
		t.Errorf("minimal states = %d, want 3", m.NumStates())
	}
	eq, err := Equivalent(f, m)
	if err != nil || !eq {
		t.Errorf("Equivalent(f, minimize(f)) = %v, %v", eq, err)
	}
	// A wildcard matches events outside the automaton's alphabet, which no
	// automaton over that alphabet can: Minimize refuses it.
	alpha := []event.Event{event.MustParse("a()"), event.MustParse("b()")}
	if _, err := Minimize(NameProjection(alpha, "Z")); err == nil {
		t.Error("Minimize accepted a wildcard automaton")
	}
}

func TestEquivalent(t *testing.T) {
	buggy, fixed := buggyStdio(), fixedStdio()
	eq, err := Equivalent(buggy, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("buggy and fixed stdio specs reported equivalent")
	}
	eq, err = Equivalent(fixed, fixed)
	if err != nil || !eq {
		t.Errorf("self-equivalence failed: %v, %v", eq, err)
	}
}

func TestComplement(t *testing.T) {
	f := buggyStdio()
	d, err := Determinize(f, f.Alphabet())
	if err != nil {
		t.Fatal(err)
	}
	comp := d.Complement()
	for _, c := range []trace.Trace{
		tr("X = fopen()", "fclose(X)"),
		tr("X = fopen()"),
		tr("fclose(X)"),
		tr(),
	} {
		if f.Accepts(c) == comp.Accepts(c) {
			t.Errorf("complement agrees with original on %q", c.Key())
		}
	}
}

func TestIntersect(t *testing.T) {
	f := buggyStdio()
	fixed := fixedStdio()
	both := intersect(t, f, fixed)
	// fopen;fclose is in both; popen;fclose only in buggy; popen;pclose only
	// in fixed.
	if !both.Accepts(tr("X = fopen()", "fclose(X)")) {
		t.Error("intersection rejects common trace")
	}
	if both.Accepts(tr("X = popen()", "fclose(X)")) {
		t.Error("intersection accepts buggy-only trace")
	}
	if both.Accepts(tr("X = popen()", "pclose(X)")) {
		t.Error("intersection accepts fixed-only trace")
	}
}

func TestUnion(t *testing.T) {
	f := buggyStdio()
	fixed := fixedStdio()
	u := Union(f, fixed)
	for _, c := range []trace.Trace{
		tr("X = fopen()", "fclose(X)"),
		tr("X = popen()", "fclose(X)"),
		tr("X = popen()", "pclose(X)"),
	} {
		if !u.Accepts(c) {
			t.Errorf("union rejects %q", c.Key())
		}
	}
	if u.Accepts(tr("X = fopen()")) {
		t.Error("union accepts trace in neither language")
	}
}

func TestTrim(t *testing.T) {
	b := NewBuilder("junk")
	s := b.States(5)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "a()", s[1])
	b.EdgeStr(s[1], "b()", s[2])
	b.EdgeStr(s[0], "a()", s[3]) // dead
	b.EdgeStr(s[4], "z()", s[2]) // unreachable
	f := b.MustBuild()
	trimmed := f.Trim()
	if trimmed.NumStates() != 3 || trimmed.NumTransitions() != 2 {
		t.Errorf("Trim: %d states %d transitions, want 3/2", trimmed.NumStates(), trimmed.NumTransitions())
	}
	eq, err := Equivalent(f, trimmed)
	if err != nil || !eq {
		t.Errorf("Trim changed language: %v %v", eq, err)
	}
}

func TestUnorderedTemplate(t *testing.T) {
	alpha := []event.Event{event.MustParse("a()"), event.MustParse("b()")}
	u := Unordered(alpha)
	if !u.Accepts(tr()) || !u.Accepts(tr("b()", "a()", "a()")) {
		t.Error("unordered template rejects traces over its alphabet")
	}
	if u.Accepts(tr("c()")) {
		t.Error("unordered template accepts out-of-alphabet trace")
	}
	ex, ok := u.Executed(tr("b()", "b()"))
	if !ok || ex.Len() != 1 {
		t.Errorf("unordered Executed = %s", ex)
	}
}

func TestNameProjectionTemplate(t *testing.T) {
	alpha := []event.Event{
		event.MustParse("X = fopen()"),
		event.MustParse("fclose(X)"),
		event.MustParse("Y = popen()"),
	}
	p := NameProjection(alpha, "X")
	full := tr("X = fopen()", "Y = popen()", "fclose(X)")
	ex, ok := p.Executed(full)
	if !ok {
		t.Fatal("projection rejected trace")
	}
	// The X events execute their own loops; popen matches only the wildcard.
	var labels []string
	ex.Range(func(i int) bool {
		labels = append(labels, p.Transition(i).Label.String())
		return true
	})
	joined := strings.Join(labels, "|")
	if !strings.Contains(joined, "X = fopen()") || !strings.Contains(joined, "fclose(X)") || !strings.Contains(joined, WildcardOp) {
		t.Errorf("projection executed = %v", labels)
	}
	for _, l := range labels {
		if strings.Contains(l, "popen") {
			t.Errorf("popen label executed explicitly in projection: %v", labels)
		}
	}
}

func TestSeedOrderTemplate(t *testing.T) {
	alpha := []event.Event{event.MustParse("a()"), event.MustParse("b()"), event.MustParse("s()")}
	f := SeedOrder(alpha, event.MustParse("s()"))
	if f.Accepts(tr("a()", "b()")) {
		t.Error("seed-order accepts trace without seed")
	}
	if !f.Accepts(tr("a()", "s()", "b()")) || !f.Accepts(tr("s()")) {
		t.Error("seed-order rejects valid trace")
	}
	// a-before-seed and a-after-seed execute different transitions.
	exBefore, _ := f.Executed(tr("a()", "s()"))
	exAfter, _ := f.Executed(tr("s()", "a()"))
	if exBefore.Equal(exAfter) {
		t.Error("seed-order does not distinguish before/after")
	}
}

func TestEnumerate(t *testing.T) {
	f := fixedStdio()
	traces := f.Enumerate(4, 50)
	if len(traces) == 0 {
		t.Fatal("Enumerate returned nothing")
	}
	for _, tc := range traces {
		if !f.Accepts(tc) {
			t.Errorf("enumerated trace rejected: %q", tc.Key())
		}
		if tc.Len() > 4 {
			t.Errorf("enumerated trace too long: %q", tc.Key())
		}
	}
	// Shortest-first: the first results are length-2.
	if traces[0].Len() != 2 {
		t.Errorf("first enumerated length = %d", traces[0].Len())
	}
	// Limit respected.
	if got := f.Enumerate(6, 3); len(got) != 3 {
		t.Errorf("limit ignored: %d", len(got))
	}
}

func TestSample(t *testing.T) {
	f := fixedStdio()
	rng := rand.New(rand.NewSource(1))
	found := 0
	for i := 0; i < 100; i++ {
		s, ok := f.Sample(rng, 8)
		if !ok {
			continue
		}
		found++
		if !f.Accepts(s) {
			t.Fatalf("sampled trace rejected: %q", s.Key())
		}
	}
	if found == 0 {
		t.Fatal("Sample never produced an accepted trace")
	}
}

func TestDotOutput(t *testing.T) {
	dot := buggyStdio().Dot()
	for _, want := range []string{"digraph", "doublecircle", "X = fopen()", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q", want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	s := buggyStdio().String()
	if !strings.Contains(s, "3 states") || !strings.Contains(s, "fclose(X)") {
		t.Errorf("String = %q", s)
	}
}

func TestIORoundTrip(t *testing.T) {
	f := fixedStdio()
	var buf strings.Builder
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Read: %v\ninput:\n%s", err, buf.String())
	}
	if g.Name() != f.Name() || g.NumStates() != f.NumStates() || g.NumTransitions() != f.NumTransitions() {
		t.Fatalf("round trip changed shape: %s vs %s", g, f)
	}
	eq, err := Equivalent(f, g)
	if err != nil || !eq {
		t.Errorf("round trip changed language: %v %v", eq, err)
	}
}

func TestIOErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"fa x\nstates 2\nstart 0\naccept 1\nedge 0 1 f()\n", // missing end
		"states 2\n",                     // outside record
		"fa x\nstates 2\nstart 5\nend\n", // bad start (caught by Build)
		"fa x\nstates 2\nstart 0\nedge 0 9 f()\nend\n",
		"fa x\nstates 2\nstart 0\nedge 0 1 ???\nend\n",
		"fa x\nbogus\nend\n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", in)
		}
	}
}
