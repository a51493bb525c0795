package strategy

import (
	"math/rand"
	"testing"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/trace"
)

// sessionFixture builds a session and its reference labeling over the
// stdio violations.
func sessionFixture(t *testing.T) (*cable.Session, []cable.Label) {
	t.Helper()
	set := trace.NewSet(
		trace.ParseEvents("v0", "X = popen()", "pclose(X)"),
		trace.ParseEvents("v1", "X = popen()", "fread(X)", "pclose(X)"),
		trace.ParseEvents("v2", "X = popen()", "fwrite(X)", "pclose(X)"),
		trace.ParseEvents("v3", "X = popen()", "fread(X)"),
		trace.ParseEvents("v4", "X = fopen()", "fread(X)"),
		trace.ParseEvents("v5", "X = fopen()", "pclose(X)"),
	)
	s, err := cable.NewSession(set, fa.FromTraces(set.Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	return s, []cable.Label{cable.Good, cable.Good, cable.Good, cable.Bad, cable.Bad, cable.Bad}
}

func TestPlanCostMatchesStrategyCost(t *testing.T) {
	s, ref := sessionFixture(t)
	l := s.Lattice()

	plan, cost, ok := topDownPlan(l, ref)
	if !ok {
		t.Fatal("topDownPlan failed")
	}
	direct, _ := TopDown(l, ref)
	if plan.Cost() != cost || cost != direct {
		t.Errorf("TopDown plan cost %v, returned %v, direct %v", plan.Cost(), cost, direct)
	}

	eplan, ecost, ok := ExpertPlan(l, ref)
	if !ok {
		t.Fatal("ExpertPlan failed")
	}
	edirect, _ := Expert(l, ref)
	if eplan.Cost() != ecost || ecost != edirect {
		t.Errorf("Expert plan cost %v, returned %v, direct %v", eplan.Cost(), ecost, edirect)
	}

	rng := rand.New(rand.NewSource(4))
	rplan, rcost, ok := randomPlan(l, ref, rng, 0)
	if !ok || rplan.Cost() != rcost {
		t.Errorf("Random plan cost %v vs %v (ok=%v)", rplan.Cost(), rcost, ok)
	}
}

func TestPlanApplyReproducesLabeling(t *testing.T) {
	s, ref := sessionFixture(t)
	plan, _, ok := topDownPlan(s.Lattice(), ref)
	if !ok {
		t.Fatal("plan failed")
	}
	if err := plan.Apply(s); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("session not fully labeled after replay")
	}
	for i := 0; i < s.NumTraces(); i++ {
		if must(s.LabelOf(i)) != ref[i] {
			t.Errorf("trace %d labeled %q, want %q", i, must(s.LabelOf(i)), ref[i])
		}
	}
}

func TestExpertPlanApplyReproducesLabeling(t *testing.T) {
	s, ref := sessionFixture(t)
	plan, _, ok := ExpertPlan(s.Lattice(), ref)
	if !ok {
		t.Fatal("plan failed")
	}
	if err := plan.Apply(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumTraces(); i++ {
		if must(s.LabelOf(i)) != ref[i] {
			t.Errorf("trace %d labeled %q, want %q", i, must(s.LabelOf(i)), ref[i])
		}
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Ops: []Op{{Concept: 3, Label: cable.Good}, {Concept: 5}}}
	if got := p.String(); got != "c3!good c5" {
		t.Errorf("String = %q", got)
	}
	if c := p.Cost(); c.Inspections != 2 || c.Labelings != 1 {
		t.Errorf("Cost = %v", c)
	}
}

func TestPlanApplyMalformed(t *testing.T) {
	s, _ := sessionFixture(t)
	// Label everything, then try a plan that labels again: no unlabeled
	// traces remain, so Apply must error.
	s.LabelTraces(s.Lattice().Top(), cable.SelectAll(), cable.Good)
	p := Plan{Ops: []Op{{Concept: s.Lattice().Top(), Label: cable.Bad}}}
	if err := p.Apply(s); err == nil {
		t.Error("malformed plan applied cleanly")
	}
}

func TestRandomPlanApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		s, ref := sessionFixture(t)
		plan, _, ok := randomPlan(s.Lattice(), ref, rng, 0)
		if !ok {
			t.Fatal("random plan failed")
		}
		if err := plan.Apply(s); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.NumTraces(); i++ {
			if must(s.LabelOf(i)) != ref[i] {
				t.Fatalf("trial %d: trace %d labeled %q, want %q", trial, i, must(s.LabelOf(i)), ref[i])
			}
		}
	}
}

func TestOptimalPlanAchievesLabeling(t *testing.T) {
	s, ref := sessionFixture(t)
	plan, cost, ok := OptimalPlan(s.Lattice(), ref, 0)
	if !ok {
		t.Fatal("OptimalPlan failed")
	}
	if plan.Cost() != cost {
		t.Fatalf("plan cost %v != returned %v", plan.Cost(), cost)
	}
	// The witness really is optimal: its cost matches Optimal's.
	direct, ok := Optimal(s.Lattice(), ref, 0)
	if !ok || direct != cost {
		t.Fatalf("Optimal = %v, plan = %v", direct, cost)
	}
	// Replaying it through the Cable commands yields the exact labeling.
	if err := plan.Apply(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumTraces(); i++ {
		if must(s.LabelOf(i)) != ref[i] {
			t.Errorf("trace %d labeled %q, want %q", i, must(s.LabelOf(i)), ref[i])
		}
	}
	// And no shorter plan exists among the other strategies' plans.
	tdPlan, _, _ := topDownPlan(s.Lattice(), ref)
	if len(plan.Ops) > len(tdPlan.Ops) {
		t.Errorf("optimal plan (%d ops) longer than top-down (%d)", len(plan.Ops), len(tdPlan.Ops))
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

// topDownPlan is TopDown returning the full operation sequence.
func topDownPlan(l *concept.Lattice, ref []cable.Label) (Plan, Cost, bool) {
	r0, err := newRun(l, ref)
	if err != nil {
		return Plan{}, Cost{}, false
	}
	r := &planRun{run: r0}
	order := l.TopDownOrder()
	for !r.done() {
		progress := false
		for _, id := range order {
			if r.done() {
				break
			}
			if r.fullyLabeled(id) {
				continue
			}
			if r.visit(id) {
				progress = true
			}
		}
		if !progress {
			return r.plan, r.cost, false
		}
	}
	return r.plan, r.cost, true
}

// randomPlan is Random returning the full operation sequence.
func randomPlan(l *concept.Lattice, ref []cable.Label, rng *rand.Rand, maxOps int) (Plan, Cost, bool) {
	r, err := newRun(l, ref)
	if err != nil {
		return Plan{}, Cost{}, false
	}
	var plan Plan
	ok := r.randomWalk(rng, maxOps, &plan)
	return plan, r.cost, ok
}
