package strategy

import (
	"fmt"
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
	// RandomMean's first trial draws the same stream, so it costs the same.
	if mean, ok := RandomMean(l, ref, 4, 1); !ok || mean != float64(rcost.Total()) {
		t.Errorf("one RandomMean trial = %v (ok=%v), Random plan %v", mean, ok, rcost)
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
		if s.Labels()[i] != ref[i] {
			t.Errorf("trace %d labeled %q, want %q", i, s.Labels()[i], ref[i])
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
		if s.Labels()[i] != ref[i] {
			t.Errorf("trace %d labeled %q, want %q", i, s.Labels()[i], ref[i])
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
			if s.Labels()[i] != ref[i] {
				t.Fatalf("trial %d: trace %d labeled %q, want %q", trial, i, s.Labels()[i], ref[i])
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
		if s.Labels()[i] != ref[i] {
			t.Errorf("trace %d labeled %q, want %q", i, s.Labels()[i], ref[i])
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
	t, ok := newTable(l, ref)
	if !ok {
		return Plan{}, Cost{}, false
	}
	k := t.walk()
	var plan Plan
	order := l.TopDownOrder()
	for !k.done() {
		progress := false
		for _, id := range order {
			if k.done() {
				break
			}
			if k.fullyLabeled(id) {
				continue
			}
			label, ok := k.visit(id)
			plan.Ops = append(plan.Ops, Op{Concept: id, Label: label})
			progress = progress || ok
		}
		if !progress {
			return plan, k.cost, false
		}
	}
	return plan, k.cost, true
}

// randomPlan walks the Random strategy on the table, drawing from rng,
// and returns its full operation sequence. Its candidates are rebuilt
// before each draw, in lattice order, so it makes RandomMean's draws by
// another route. It reports false when the walk passes maxOps (0 means
// 1000 × the number of concepts).
func randomPlan(l *concept.Lattice, ref []cable.Label, rng *rand.Rand, maxOps int) (Plan, Cost, bool) {
	t, ok := newTable(l, ref)
	if !ok {
		return Plan{}, Cost{}, false
	}
	if maxOps <= 0 {
		maxOps = 1000 * l.Len()
	}
	k := t.walk()
	var plan Plan
	for {
		var cands []int
		for ci := range l.Len() {
			if !k.fullyLabeled(ci) {
				cands = append(cands, ci)
			}
		}
		if len(cands) == 0 {
			return plan, k.cost, true
		}
		ci := cands[rng.Intn(len(cands))]
		label, _ := k.visit(ci)
		plan.Ops = append(plan.Ops, Op{Concept: ci, Label: label})
		if k.cost.Total() > maxOps {
			return plan, k.cost, false
		}
	}
}

// Cost and Apply have no caller outside tests: the tests check a plan's
// cost against the strategy's and replay it on a fresh session.

// Cost returns the plan's cost under the Section 4.2 model: one inspection
// per op plus one labeling per op that labels.
func (p Plan) Cost() Cost {
	c := Cost{Inspections: len(p.Ops)}
	for _, op := range p.Ops {
		if op.Label != cable.Unlabeled {
			c.Labelings++
		}
	}
	return c
}

// Apply replays the plan on a session using the public Cable commands,
// labeling each op's concept's unlabeled traces. It returns an error if an
// op labels a concept with no unlabeled traces (a malformed plan).
func (p Plan) Apply(s *cable.Session) error {
	for i, op := range p.Ops {
		if op.Label == cable.Unlabeled {
			continue // pure inspection
		}
		n, err := s.LabelTraces(op.Concept, cable.SelectUnlabeled(), op.Label)
		if err != nil {
			return fmt.Errorf("strategy: plan op %d: %w", i, err)
		}
		if n == 0 {
			return fmt.Errorf("strategy: plan op %d labels concept %d with no unlabeled traces", i, op.Concept)
		}
	}
	return nil
}
