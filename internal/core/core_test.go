package core

import (
	"strings"
	"testing"

	"repro/internal/cable"
	"repro/internal/fa"
	"repro/internal/mine"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/xtrace"
)

// labelByTruth replays the generator's ground truth onto the session,
// standing in for the human labeler.
func labelByTruth(s *Session, truth xtrace.Labeling) {
	for i := 0; i < s.NumTraces(); i++ {
		if truth[s.Representatives()[i].Key()] {
			s.LabelTrace(i, cable.Good)
		} else {
			s.LabelTrace(i, cable.Bad)
		}
	}
}

func TestDebugViolationsFlow(t *testing.T) {
	// Section 2.1 end to end: Figure 1 spec against the stdio workload,
	// label violations by ground truth, fix, and compare with the correct
	// specification's verdicts.
	spec := specs.Stdio()
	gen := xtrace.Generator{Model: spec.Model, Seed: 21}
	scenarios, truth := gen.ScenarioSet(150)
	session, violations, err := DebugViolations(specs.FigureOneFA(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if session == nil || len(violations) == 0 {
		t.Fatal("no violations against the buggy spec")
	}
	// The violations must include correct popen/pclose traces (spec bug)
	// and erroneous leaks (program bugs).
	sawGood, sawBad := false, false
	for i := 0; i < session.NumTraces(); i++ {
		if truth[session.Representatives()[i].Key()] {
			sawGood = true
		} else {
			sawBad = true
		}
	}
	if !sawGood || !sawBad {
		t.Fatalf("violations lack both kinds: good=%v bad=%v", sawGood, sawBad)
	}

	labelByTruth(session, truth)
	if !session.Done() {
		t.Fatal("session not fully labeled")
	}
	fixed, err := FixSpec(specs.FigureOneFA(), session)
	if err != nil {
		t.Fatal(err)
	}
	// The fixed spec accepts all good scenarios.
	for _, c := range scenarios.Classes() {
		if truth[c.Rep.Key()] && !fixed.Accepts(c.Rep) {
			t.Errorf("fixed spec rejects good trace %q", c.Rep.Key())
		}
	}
	// And it now accepts popen;pclose, which Figure 1 rejected.
	pp := trace.ParseEvents("", "X = popen()", "pclose(X)")
	if !fixed.Accepts(pp) {
		t.Error("fixed spec still rejects popen;pclose")
	}
}

func TestDebugViolationsCleanSpec(t *testing.T) {
	spec := specs.Stdio()
	// Only good scenarios: the correct spec yields no violations.
	goodOnly := xtrace.Model{Scenarios: nil}
	for _, sc := range spec.Model.Scenarios {
		if sc.Good {
			goodOnly.Scenarios = append(goodOnly.Scenarios, sc)
		}
	}
	gen := xtrace.Generator{Model: goodOnly, Seed: 3}
	scenarios, _ := gen.ScenarioSet(50)
	session, violations, err := DebugViolations(spec.FA, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if session != nil || violations != nil {
		t.Error("clean run produced violations")
	}
}

func TestDebugMinedFlow(t *testing.T) {
	// Section 2.2 end to end: mine a (buggy) spec from runs containing
	// errors, debug the scenarios, relearn from good labels, and check the
	// result against the correct specification.
	spec := specs.Stdio()
	gen := xtrace.Generator{Model: spec.Model, Seed: 77}
	runs, truth := gen.Runs(40, 3)
	miner := mine.Miner{FrontEnd: mine.FrontEnd{Seeds: spec.Model.SeedOps(), FollowDerived: true}}
	mined, scenarios, err := miner.Mine("stdio-mined", runs)
	if err != nil {
		t.Fatal(err)
	}
	// The mined spec accepts erroneous scenarios (it was trained on them).
	buggy := false
	for _, c := range scenarios.Classes() {
		if !truth[c.Rep.Key()] && mined.Accepts(c.Rep) {
			buggy = true
		}
	}
	if !buggy {
		t.Fatal("mined spec is not buggy; workload has no errors?")
	}

	session, err := DebugMined(mined, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	labelByTruth(session, truth)
	if !session.Done() {
		t.Fatal("labeling incomplete")
	}
	fixed, err := RelearnGood(session, miner)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range scenarios.Classes() {
		if truth[c.Rep.Key()] && !fixed.Accepts(c.Rep) {
			t.Errorf("relearned spec rejects good scenario %q", c.Rep.Key())
		}
		if !truth[c.Rep.Key()] && fixed.Accepts(c.Rep) {
			t.Errorf("relearned spec still accepts bad scenario %q", c.Rep.Key())
		}
	}
}

func TestFixSpecDetectsMislabeling(t *testing.T) {
	// A trace labeled bad that the (already fixed) specification accepts is
	// a labeling contradiction FixSpec must report. Arrange it directly:
	// the spec accepts t2, and the user labels t2 bad.
	spec := specs.FigureOneFA() // accepts "X = fopen(); fclose(X)" etc.
	set := trace.NewSet(
		trace.ParseEvents("v1", "X = popen()", "pclose(X)"), // genuine spec gap
		trace.ParseEvents("v2", "X = fopen()", "fclose(X)"), // accepted by spec!
	)
	// v2 is not really a violation of spec, but a confused user could have
	// assembled such a session; build it directly.
	session, err := cable.NewSession(set, ReferenceFA(set))
	if err != nil {
		t.Fatal(err)
	}
	session.LabelTrace(0, cable.Good)
	session.LabelTrace(1, cable.Bad)
	if _, err := FixSpec(spec, session); err == nil {
		t.Error("FixSpec accepted a labeling contradicted by the specification")
	}
	// With the labels the right way round, fixing succeeds and repairs the
	// popen gap.
	session.LabelTrace(0, cable.Good)
	session.LabelTrace(1, cable.Good)
	fixed, err := FixSpec(spec, session)
	if err != nil {
		t.Fatal(err)
	}
	if !fixed.Accepts(trace.ParseEvents("", "X = popen()", "pclose(X)")) {
		t.Error("fixed spec rejects the good popen trace")
	}
}

func TestRelearnGoodMultipleLabels(t *testing.T) {
	spec := specs.Stdio()
	gen := xtrace.Generator{Model: spec.Model, Seed: 5}
	runs, truth := gen.Runs(30, 3)
	miner := mine.Miner{FrontEnd: mine.FrontEnd{Seeds: spec.Model.SeedOps(), FollowDerived: true}}
	mined, scenarios, err := miner.Mine("stdio-mined", runs)
	if err != nil {
		t.Fatal(err)
	}
	session, err := DebugMined(mined, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	// Assign split good labels by protocol, bad otherwise.
	for i := 0; i < session.NumTraces(); i++ {
		key := session.Representatives()[i].Key()
		switch {
		case !truth[key]:
			session.LabelTrace(i, cable.Bad)
		case strings.HasPrefix(key, "X = fopen"):
			session.LabelTrace(i, cable.Label("good fopen"))
		default:
			session.LabelTrace(i, cable.Label("good popen"))
		}
	}
	fixed, err := RelearnGood(session, miner)
	if err != nil {
		t.Fatal(err)
	}
	// Split learning prevents fopen/popen cross-generalization.
	if fixed.Accepts(trace.ParseEvents("", "X = popen()", "fclose(X)")) {
		t.Error("split relearning still crosses protocols")
	}
}

func TestIsGoodLabel(t *testing.T) {
	for label, want := range map[cable.Label]bool{
		cable.Good:        true,
		"good fopen":      true,
		cable.Bad:         false,
		cable.Mixed:       false,
		cable.Unlabeled:   false,
		"verygood... not": false,
	} {
		if got := IsGoodLabel(label); got != want {
			t.Errorf("IsGoodLabel(%q) = %v", label, got)
		}
	}
}

func TestDebugProgramStatic(t *testing.T) {
	// Static flavor of Section 2.1: the buggy spec against the full stdio
	// program model.
	stdio := specs.Stdio()
	program, err := specs.ProgramFA("stdio", stdio.Model)
	if err != nil {
		t.Fatal(err)
	}
	session, violations, err := debugProgram(program, specs.FigureOneFA(), 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if session == nil || len(violations) == 0 {
		t.Fatal("no static violations")
	}
	// Label by the correct spec's verdict and fix; the fixed spec then
	// accepts strictly more of the program's good behaviour.
	for i := 0; i < session.NumTraces(); i++ {
		if stdio.FA.Accepts(session.Representatives()[i]) {
			session.LabelTrace(i, cable.Good)
		} else {
			session.LabelTrace(i, cable.Bad)
		}
	}
	fixed, err := FixSpec(specs.FigureOneFA(), session)
	if err != nil {
		t.Fatal(err)
	}
	if !fixed.Accepts(trace.ParseEvents("", "X = popen()", "pclose(X)")) {
		t.Error("static debugging did not repair the popen gap")
	}
	// A conforming program yields no session.
	good, err := specs.DeriveFA("good", stdio.Model)
	if err != nil {
		t.Fatal(err)
	}
	session, violations, err = debugProgram(good, stdio.FA, 8, 100)
	if err != nil || session != nil || violations != nil {
		t.Errorf("conforming program produced a session: %v %v %v", session, violations, err)
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

// debugProgram runs the static variant of the testing workflow: check a
// program model against the specification with the product-based verifier
// (verify.Static), and build the debugging session over the reported
// violation traces (bounded by maxLen events per trace and limit traces).
// When the program conforms up to the bound, it returns (nil, nil, nil).
func debugProgram(program, spec *fa.FA, maxLen, limit int) (*Session, []verify.Violation, error) {
	violations, err := verify.Static(program, spec, maxLen, limit)
	if err != nil {
		return nil, nil, err
	}
	if len(violations) == 0 {
		return nil, nil, nil
	}
	set := &trace.Set{}
	for _, v := range violations {
		set.Add(v.Trace)
	}
	session, err := cable.NewSession(set, ReferenceFA(set))
	if err != nil {
		return nil, nil, err
	}
	return session, violations, nil
}
