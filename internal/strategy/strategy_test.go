package strategy

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/trace"
	"repro/internal/wellformed"
)

// stdioFixture builds the well-formed lattice and reference labeling used
// across these tests (Section 2.1's violations over an unordered FA).
func stdioFixture(t *testing.T) (*concept.Lattice, []cable.Label) {
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
	return l, []cable.Label{cable.Good, cable.Good, cable.Good, cable.Bad, cable.Bad, cable.Bad}
}

// fooFixture builds the non-well-formed lattice of Section 4.3.
func fooFixture(t *testing.T) (*concept.Lattice, []cable.Label) {
	t.Helper()
	b := fa.NewBuilder("foo")
	s := b.State()
	b.Start(s)
	b.Accept(s)
	b.EdgeStr(s, "foo()", s)
	traces := []trace.Trace{
		trace.ParseEvents("even2", "foo()", "foo()"),
		trace.ParseEvents("odd1", "foo()"),
	}
	l, err := concept.BuildFromTraces(traces, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return l, []cable.Label{cable.Good, cable.Bad}
}

func TestAllStrategiesSucceedOnWellFormed(t *testing.T) {
	l, ref := stdioFixture(t)
	if ok, _ := wellformed.Check(l, ref); !ok {
		t.Fatal("fixture not well-formed")
	}
	checks := map[string]func() (Cost, bool){
		"TopDown":  func() (Cost, bool) { return TopDown(l, ref) },
		"BottomUp": func() (Cost, bool) { return BottomUp(l, ref) },
		"Expert":   func() (Cost, bool) { return Expert(l, ref) },
		"Optimal":  func() (Cost, bool) { return Optimal(l, ref, 0) },
		"Random": func() (Cost, bool) {
			_, cost, ok := randomPlan(l, ref, rand.New(rand.NewSource(1)), 0)
			return cost, ok
		},
	}
	for name, f := range checks {
		cost, ok := f()
		if !ok {
			t.Errorf("%s failed on well-formed lattice", name)
		}
		if cost.Total() <= 0 || cost.Inspections < cost.Labelings {
			t.Errorf("%s cost implausible: %s", name, cost)
		}
	}
}

func TestAllStrategiesFailOnNotWellFormed(t *testing.T) {
	l, ref := fooFixture(t)
	if ok, _ := wellformed.Check(l, ref); ok {
		t.Fatal("foo fixture unexpectedly well-formed")
	}
	if _, ok := TopDown(l, ref); ok {
		t.Error("TopDown succeeded")
	}
	if _, ok := BottomUp(l, ref); ok {
		t.Error("BottomUp succeeded")
	}
	if _, ok := Expert(l, ref); ok {
		t.Error("Expert succeeded")
	}
	if _, ok := Optimal(l, ref, 0); ok {
		t.Error("Optimal succeeded")
	}
	if _, _, ok := randomPlan(l, ref, rand.New(rand.NewSource(1)), 100); ok {
		t.Error("Random succeeded")
	}
	if _, ok := RandomMean(l, ref, 1, 8); ok {
		t.Error("RandomMean succeeded")
	}
}

func TestOptimalIsLowerBound(t *testing.T) {
	l, ref := stdioFixture(t)
	opt, ok := Optimal(l, ref, 0)
	if !ok {
		t.Fatal("Optimal failed")
	}
	for name, f := range map[string]func() (Cost, bool){
		"TopDown":  func() (Cost, bool) { return TopDown(l, ref) },
		"BottomUp": func() (Cost, bool) { return BottomUp(l, ref) },
		"Expert":   func() (Cost, bool) { return Expert(l, ref) },
	} {
		c, ok := f()
		if !ok {
			t.Fatalf("%s failed", name)
		}
		if c.Total() < opt.Total() {
			t.Errorf("%s (%s) beat Optimal (%s)", name, c, opt)
		}
	}
	mean, ok := RandomMean(l, ref, 7, 64)
	if !ok || mean < float64(opt.Total()) {
		t.Errorf("RandomMean %.1f below Optimal %d", mean, opt.Total())
	}
}

func TestBaseline(t *testing.T) {
	l, _ := stdioFixture(t)
	c := Baseline(l)
	if c.Inspections != 6 || c.Labelings != 6 || c.Total() != 12 {
		t.Errorf("Baseline = %s", c)
	}
}

func TestOptimalBudgetExceeded(t *testing.T) {
	l, ref := stdioFixture(t)
	if _, ok := Optimal(l, ref, 1); ok {
		t.Error("Optimal with budget 1 claimed success")
	}
}

func TestCostArithmetic(t *testing.T) {
	c := Cost{Inspections: 4, Labelings: 3}
	if c.Total() != 7 {
		t.Errorf("Total = %d, want 7", c.Total())
	}
	if s := c.String(); s != "7 ops (4 inspections + 3 labelings)" {
		t.Errorf("String = %q", s)
	}
}

func TestRunValidation(t *testing.T) {
	l, ref := stdioFixture(t)
	if _, ok := TopDown(l, ref[:3]); ok {
		t.Error("TopDown accepted short reference labeling")
	}
	bad := append([]cable.Label(nil), ref...)
	bad[0] = cable.Unlabeled
	if _, ok := TopDown(l, bad); ok {
		t.Error("TopDown accepted unlabeled reference entry")
	}
}

// wideFixture builds a lattice of 70 objects with distinct rows over
// seven attributes (object o has attribute a iff bit a of o is set), each
// object labeled by the parity of its row. Every row is its own block, so
// its table spans two words, and every remainder Bottom-up meets is one
// object, so the lattice is well-formed for the labeling.
func wideFixture(t *testing.T) (*concept.Lattice, []cable.Label) {
	t.Helper()
	const no, na = 70, 7
	objs, attrs := make([]string, no), make([]string, na)
	for i := range objs {
		objs[i] = fmt.Sprintf("o%d", i)
	}
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	ctx := concept.NewContext(objs, attrs)
	ref := make([]cable.Label, no)
	for o := range objs {
		for a := range attrs {
			if o>>a&1 != 0 {
				ctx.Relate(o, a)
			}
		}
		ref[o] = cable.Good
		if bits.OnesCount(uint(o))%2 != 0 {
			ref[o] = cable.Bad
		}
	}
	l := concept.Build(ctx)
	if ok, _ := wellformed.Check(l, ref); !ok {
		t.Fatal("wide fixture not well-formed")
	}
	return l, ref
}

// TestRandomTrialAllocFree pins RandomMean's per-trial steady state:
// reseeding its source and walking a Random trial from the reset
// candidate list allocates nothing, on the single-word walk (the stdio
// fixture's six blocks) and on the w-word walk (the wide fixture's 70).
func TestRandomTrialAllocFree(t *testing.T) {
	for _, c := range []struct {
		name    string
		fixture func(*testing.T) (*concept.Lattice, []cable.Label)
		w       int
	}{{"stdio", stdioFixture, 1}, {"wide", wideFixture, 2}} {
		l, ref := c.fixture(t)
		tb, ints, words, ok := buildTable(l, ref, 2*l.Len())
		if !ok {
			t.Fatalf("%s: buildTable rejected the fixture", c.name)
		}
		if tb.w != c.w {
			t.Fatalf("%s: table of %d words, want %d", c.name, tb.w, c.w)
		}
		tr := tb.newTrial(l.Len(), ints, words)
		src := new(trialSource)
		seed := int64(0)
		allocs := testing.AllocsPerRun(100, func() {
			seed++
			src.Seed(seed)
			if !tb.randomTrial(&tr, src, 1000*l.Len()) {
				t.Fatalf("%s seed %d: Random trial failed on a well-formed lattice", c.name, seed)
			}
			if tr.cost.Labelings == 0 {
				t.Fatalf("%s seed %d: Random trial labeled nothing", c.name, seed)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: a reset-and-walk Random trial allocates %v times, want 0", c.name, allocs)
		}
	}
}
