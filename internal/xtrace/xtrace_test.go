package xtrace

import (
	"strings"
	"testing"

	"repro/internal/mine"
	"repro/internal/trace"
)

func model() Model {
	return Model{
		Scenarios: []Scenario{
			{Name: "ok", Good: true, Weight: 8, Events: []Event{
				Ev("X = fopen()"),
				Rep("fread(X)", 0, 2),
				Ev("fclose(X)"),
			}},
			{Name: "leak", Good: false, Kind: Leak, Weight: 2, Events: []Event{
				Ev("X = fopen()"),
				Rep("fread(X)", 1, 2),
			}},
		},
		Noise: []string{"puts()"},
	}
}

func TestValidate(t *testing.T) {
	if err := model().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := model()
	bad.Scenarios[0].Weight = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero weight accepted")
	}
	bad = model()
	bad.Scenarios[0].Events[0].Sym = "not an event"
	if err := bad.Validate(); err == nil {
		t.Error("unparsable template accepted")
	}
	bad = model()
	bad.Scenarios = bad.Scenarios[1:] // no good scenario
	if err := bad.Validate(); err == nil {
		t.Error("all-bad model accepted")
	}
	bad = model()
	bad.Noise = []string{"touch(X)"}
	if err := bad.Validate(); err == nil {
		t.Error("object-touching noise accepted")
	}
	bad = model()
	bad.Scenarios[0].Events[1].Max = 0 // max < min
	bad.Scenarios[0].Events[1].Min = 2
	if err := bad.Validate(); err == nil {
		t.Error("inverted repetition bounds accepted")
	}
	bad = model()
	bad.Scenarios[1].Kind = NotABug // bad scenario without a bug kind
	if err := bad.Validate(); err == nil {
		t.Error("bad scenario without bug kind accepted")
	}
	bad = model()
	bad.Scenarios[0].Kind = Leak // good scenario with a bug kind
	if err := bad.Validate(); err == nil {
		t.Error("good scenario with bug kind accepted")
	}
}

func TestValidateAmbiguity(t *testing.T) {
	m := Model{Scenarios: []Scenario{
		{Name: "good", Good: true, Weight: 1, Events: []Event{Ev("X = f()"), Rep("g(X)", 0, 2)}},
		{Name: "bad", Good: false, Kind: Misuse, Weight: 1, Events: []Event{Ev("X = f()"), Ev("g(X)")}},
	}}
	if err := m.Validate(); err == nil {
		t.Fatal("overlapping good/bad templates accepted")
	}
}

// TestExpansionsWholePastLimit takes a template with 81 expansions, more
// than Validate's 64: every string past the limit is still a whole
// expansion, so a leak template with the same steps but no close does not
// collide with the prefixes.
func TestExpansionsWholePastLimit(t *testing.T) {
	steps := func(close bool) []Event {
		evs := []Event{Ev("X = open()"), Rep("a(X)", 0, 2), Rep("b(X)", 0, 2), Rep("c(X)", 0, 2), Rep("d(X)", 0, 2)}
		if close {
			evs = append(evs, Ev("close(X)"))
		}
		return evs
	}
	m := Model{Scenarios: []Scenario{
		{Name: "s", Good: true, Weight: 1, Events: steps(true)},
		{Name: "leak", Good: false, Kind: Leak, Weight: 1, Events: steps(false)},
	}}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := Expansions(m.Scenarios[0], 20)
	if len(got) != 20 {
		t.Fatalf("%d expansions, want 20", len(got))
	}
	for _, s := range got {
		if !strings.HasSuffix(s, "; close(X)") {
			t.Errorf("expansion %q lacks close(X)", s)
		}
	}
	if all := Expansions(m.Scenarios[0], 100); len(all) != 81 {
		t.Errorf("%d expansions under a limit of 100, want all 81", len(all))
	}
}

func TestScenarioSetDeterministic(t *testing.T) {
	g := Generator{Model: model(), Seed: 42}
	a, la := g.ScenarioSet(100)
	b, lb := g.ScenarioSet(100)
	if a.Total() != 100 || b.Total() != 100 || a.NumClasses() != b.NumClasses() {
		t.Fatalf("non-deterministic generation: %d vs %d classes", a.NumClasses(), b.NumClasses())
	}
	for i := range a.Classes() {
		if a.Class(i).Rep.Key() != b.Class(i).Rep.Key() {
			t.Fatalf("class %d differs between runs", i)
		}
	}
	if len(la) != len(lb) {
		t.Fatal("labelings differ")
	}
	// Different seeds give (almost surely) different draws.
	c, _ := Generator{Model: model(), Seed: 43}.ScenarioSet(100)
	same := true
	for i := 0; i < a.NumClasses() && i < c.NumClasses(); i++ {
		if a.Class(i).Count != c.Class(i).Count {
			same = false
		}
	}
	if a.NumClasses() == c.NumClasses() && same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestScenarioSetLabelsComplete(t *testing.T) {
	g := Generator{Model: model(), Seed: 7}
	set, labels := g.ScenarioSet(200)
	good, bad := 0, 0
	for _, c := range set.Classes() {
		isGood, ok := labels[c.Rep.Key()]
		if !ok {
			t.Fatalf("class %q unlabeled", c.Rep.Key())
		}
		if isGood {
			good += c.Count
		} else {
			bad += c.Count
		}
	}
	if good+bad != 200 {
		t.Fatalf("labels cover %d of 200", good+bad)
	}
	// Weight 8:2 — the majority must be good.
	if good <= bad {
		t.Errorf("good=%d bad=%d; weights not respected", good, bad)
	}
}

func TestWeightsRespected(t *testing.T) {
	g := Generator{Model: model(), Seed: 11}
	set, labels := g.ScenarioSet(2000)
	bad := 0
	for _, c := range set.Classes() {
		if !labels[c.Rep.Key()] {
			bad += c.Count
		}
	}
	// Expected 20%; allow generous slack.
	if bad < 250 || bad > 550 {
		t.Errorf("bad fraction %d/2000 far from weight 2/10", bad)
	}
}

func TestRunsRoundTripThroughFrontEnd(t *testing.T) {
	// The crucial generator/front-end contract: extracting scenarios from
	// generated whole-program runs recovers exactly the labeled symbolic
	// traces, despite interleaving and noise.
	g := Generator{Model: model(), Seed: 5}
	runs, labels := g.Runs(20, 4)
	if len(runs) != 20 {
		t.Fatalf("got %d runs", len(runs))
	}
	fe := mine.FrontEnd{Seeds: g.Model.SeedOps(), FollowDerived: true}
	set := fe.ExtractAll(runs)
	if set.Total() != 20*4 {
		t.Fatalf("extracted %d scenarios, want 80", set.Total())
	}
	for _, c := range set.Classes() {
		if _, ok := labels[c.Rep.Key()]; !ok {
			t.Errorf("extracted scenario %q not in generated labeling", c.Rep.Key())
		}
	}
}

func TestRunsContainNoise(t *testing.T) {
	g := Generator{Model: model(), Seed: 3}
	runs, _ := g.Runs(10, 3)
	foundNoise := false
	for _, r := range runs {
		for _, e := range r.Events {
			if e.Op == "puts" {
				foundNoise = true
			}
		}
	}
	if !foundNoise {
		t.Error("no noise events generated")
	}
}

func TestRunsDistinctObjects(t *testing.T) {
	// Scenario instances must use disjoint object identities, or the front
	// end would merge unrelated lifecycles.
	g := Generator{Model: model(), Seed: 9}
	runs, _ := g.Runs(5, 5)
	seenDef := map[int]bool{}
	for _, r := range runs {
		for _, e := range r.Events {
			if e.Def != 0 {
				if seenDef[int(e.Def)] {
					t.Fatalf("object #%d defined twice", int(e.Def))
				}
				seenDef[int(e.Def)] = true
			}
		}
	}
}

func TestSeedOpsAndDescribe(t *testing.T) {
	m := model()
	ops := m.SeedOps()
	if len(ops) != 1 || ops[0] != "fopen" {
		t.Errorf("SeedOps = %v", ops)
	}
	desc := m.Describe()
	for _, want := range []string{"ok", "leak", "good", "bad", "fread(X){0,2}"} {
		if !containsStr(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
}

func TestMultiNameScenario(t *testing.T) {
	m := Model{Scenarios: []Scenario{
		{Name: "pair", Good: true, Weight: 1, Events: []Event{
			Ev("X = create()"),
			Ev("Y = copy(X)"),
			Ev("merge(X, Y)"),
			Ev("destroy(Y)"),
			Ev("destroy(X)"),
		}},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	g := Generator{Model: m, Seed: 2}
	runs, labels := g.Runs(3, 2)
	fe := mine.FrontEnd{Seeds: []string{"create"}, FollowDerived: true}
	set := fe.ExtractAll(runs)
	want := trace.ParseEvents("", "X = create()", "Y = copy(X)", "merge(X, Y)", "destroy(Y)", "destroy(X)").Key()
	if set.NumClasses() != 1 || set.Class(0).Rep.Key() != want {
		t.Fatalf("multi-name extraction = %q", set.Class(0).Rep.Key())
	}
	if !labels[want] {
		t.Error("labeling missing multi-name trace")
	}
}

func containsStr(s, sub string) bool { return strings.Contains(s, sub) }
