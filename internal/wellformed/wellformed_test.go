package wellformed_test

import (
	"testing"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/trace"
	"repro/internal/wellformed"
)

// fooLattice builds the Section 4.3 counterexample: a specification whose
// FA has one accepting state with a single foo() self-loop accepts all
// sequences of foo calls, so every trace executes the same lone transition
// and lands in one concept. If only even counts of foo are correct, that
// concept is mixed and the lattice is not well-formed.
func fooLattice(t *testing.T) (*concept.Lattice, []cable.Label) {
	t.Helper()
	b := fa.NewBuilder("foo")
	s := b.State()
	b.Start(s)
	b.Accept(s)
	b.EdgeStr(s, "foo()", s)
	ref := b.MustBuild()
	traces := []trace.Trace{
		trace.ParseEvents("even2", "foo()", "foo()"),
		trace.ParseEvents("odd1", "foo()"),
		trace.ParseEvents("even4", "foo()", "foo()", "foo()", "foo()"),
		trace.ParseEvents("odd3", "foo()", "foo()", "foo()"),
	}
	l, err := concept.BuildFromTraces(traces, ref)
	if err != nil {
		t.Fatal(err)
	}
	labels := []cable.Label{cable.Good, cable.Bad, cable.Good, cable.Bad}
	return l, labels
}

// stdioLattice builds a well-formed lattice: Section 2.1 violations over an
// unordered reference FA with a good/bad labeling that concept boundaries
// can express.
func stdioLattice(t *testing.T) (*concept.Lattice, []cable.Label) {
	t.Helper()
	set := trace.NewSet(
		trace.ParseEvents("v0", "X = popen()", "pclose(X)"),
		trace.ParseEvents("v1", "X = popen()", "fread(X)", "pclose(X)"),
		trace.ParseEvents("v2", "X = popen()", "fwrite(X)", "pclose(X)"),
		trace.ParseEvents("v3", "X = popen()", "fread(X)"),
		trace.ParseEvents("v4", "X = fopen()", "fread(X)"),
		trace.ParseEvents("v5", "X = fopen()", "pclose(X)"),
	)
	ref := fa.FromTraces(set.Alphabet())
	l, err := concept.BuildFromTraces(set.Representatives(), ref)
	if err != nil {
		t.Fatal(err)
	}
	labels := []cable.Label{cable.Good, cable.Good, cable.Good, cable.Bad, cable.Bad, cable.Bad}
	return l, labels
}

func TestFooNotWellFormed(t *testing.T) {
	l, labels := fooLattice(t)
	ok, bad := wellformed.Check(l, labels)
	if ok || len(bad) == 0 {
		t.Fatalf("foo lattice reported well-formed (bad=%v)", bad)
	}
	minimal := wellformed.MixedConcepts(l, labels)
	if len(minimal) == 0 {
		t.Fatal("no minimal mixed concepts")
	}
	// The minimal mixed concept holds all four traces.
	for _, id := range minimal {
		if l.Concept(id).Extent.Len() != 4 {
			t.Errorf("minimal mixed concept c%d extent = %s", id, l.Concept(id).Extent)
		}
	}
}

func TestStdioWellFormed(t *testing.T) {
	l, labels := stdioLattice(t)
	ok, bad := wellformed.Check(l, labels)
	if !ok {
		t.Fatalf("stdio lattice not well-formed; bad concepts %v\n%s", bad, l)
	}
	if mixed := wellformed.MixedConcepts(l, labels); len(mixed) != 0 {
		t.Errorf("MixedConcepts on well-formed lattice = %v", mixed)
	}
}

func TestUniformLabelingAlwaysWellFormed(t *testing.T) {
	l, labels := fooLattice(t)
	for i := range labels {
		labels[i] = cable.Good
	}
	if ok, _ := wellformed.Check(l, labels); !ok {
		t.Fatal("uniform labeling reported not well-formed")
	}
}

func TestFocusRepairsFooLattice(t *testing.T) {
	// The user's escape hatch in Section 4.3: re-cluster the mixed traces
	// with a better FA. A single two-state parity loop does NOT work — a
	// three-foo trace executes both loop transitions, exactly like the even
	// traces. What works is the union of two disjoint branches, one
	// accepting even counts and one accepting odd counts, so each trace's
	// accepting runs stay within one branch and parity shows up in the
	// executed-transition sets.
	b := fa.NewBuilder("foo-parity")
	e := b.States(2) // even branch: accept at e0
	o := b.States(2) // odd branch: accept at o1
	b.Start(e[0], o[0])
	b.Accept(e[0], o[1])
	b.EdgeStr(e[0], "foo()", e[1])
	b.EdgeStr(e[1], "foo()", e[0])
	b.EdgeStr(o[0], "foo()", o[1])
	b.EdgeStr(o[1], "foo()", o[0])
	parity := b.MustBuild()
	traces := []trace.Trace{
		trace.ParseEvents("even2", "foo()", "foo()"),
		trace.ParseEvents("odd1", "foo()"),
		trace.ParseEvents("even4", "foo()", "foo()", "foo()", "foo()"),
		trace.ParseEvents("odd3", "foo()", "foo()", "foo()"),
	}
	l, err := concept.BuildFromTraces(traces, parity)
	if err != nil {
		t.Fatal(err)
	}
	labels := []cable.Label{cable.Good, cable.Bad, cable.Good, cable.Bad}
	if ok, bad := wellformed.Check(l, labels); !ok {
		t.Fatalf("parity lattice not well-formed; bad = %v\n%s", bad, l)
	}
}
