package prog

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mine"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/verify"
)

const leakySrc = `
prog leaky {
  // may forget to close
  X := fopen();
  loop { fread(X); }
  choice { fclose(X); } or { skip; }
}
`

func TestParseAndPrint(t *testing.T) {
	p, err := Parse(leakySrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "leaky" || len(p.Body) != 3 {
		t.Fatalf("parsed %q with %d stmts", p.Name, len(p.Body))
	}
	// Printing re-parses to the same structure.
	again, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, p.String())
	}
	if again.String() != p.String() {
		t.Errorf("print/parse not stable:\n%s\nvs\n%s", p.String(), again.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"prog {",
		"prog p { x := ; }",
		"prog p { f() }",          // missing ;
		"prog p { choice { } }",   // no or
		"prog p { loop { f(); }",  // unterminated
		"prog p { f(a b); }",      // missing comma
		"prog p { @; }",           // bad char
		"prog p { skip; } extra",  // trailing
		"prog p { x := f(); } {}", // trailing block
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestCompileLanguage(t *testing.T) {
	p := mustParse(leakySrc)
	f, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		t    trace.Trace
		want bool
	}{
		{trace.ParseEvents("", "X = fopen()", "fclose(X)"), true},
		{trace.ParseEvents("", "X = fopen()", "fread(X)", "fread(X)", "fclose(X)"), true},
		{trace.ParseEvents("", "X = fopen()"), true}, // leak path (skip branch)
		{trace.ParseEvents("", "X = fopen()", "fclose(X)", "fclose(X)"), false},
		{trace.ParseEvents("", "fclose(X)"), false},
	} {
		if got := f.Accepts(c.t); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.t.Key(), got, c.want)
		}
	}
}

func TestCompileChoiceOpt(t *testing.T) {
	p := mustParse(`prog c { choice { a(); } or { b(); } or { skip; } opt { z(); } }`)
	f, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a()", "b()", "", "a(); z()", "z()"} {
		var evs []string
		if key != "" {
			evs = strings.Split(key, "; ")
		}
		if !f.Accepts(trace.ParseEvents("", evs...)) {
			t.Errorf("rejects %q", key)
		}
	}
	if f.Accepts(trace.ParseEvents("", "a()", "b()")) {
		t.Error("accepts both choice branches")
	}
}

func TestExecuteProducesCompiledBehaviour(t *testing.T) {
	// Every executed run's per-object projection is accepted by the
	// compiled automaton (single-object program: rename to match).
	p := mustParse(leakySrc)
	f, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	fe := mine.FrontEnd{Seeds: []string{"fopen"}, FollowDerived: true}
	for i := 0; i < 50; i++ {
		events, _ := p.Execute(rng, 1, ExecOptions{})
		scenarios := fe.Extract(mine.Run{ID: "r", Events: events})
		if len(scenarios) != 1 {
			t.Fatalf("run %d: %d scenarios", i, len(scenarios))
		}
		if !f.Accepts(scenarios[0]) {
			t.Fatalf("run %d: compiled FA rejects executed behaviour %q", i, scenarios[0].Key())
		}
	}
}

func TestExecuteLoopBound(t *testing.T) {
	p := mustParse(`prog spin { loop { tick(); } }`)
	rng := rand.New(rand.NewSource(1))
	events, _ := p.Execute(rng, 1, ExecOptions{LoopContinue: 0.999999, MaxSteps: 50})
	if len(events) > 50 {
		t.Fatalf("MaxSteps not enforced: %d events", len(events))
	}
}

func TestRunsDistinctObjects(t *testing.T) {
	p := mustParse(leakySrc)
	runs := p.Runs(rand.New(rand.NewSource(2)), 10, ExecOptions{})
	seen := map[int]bool{}
	for _, r := range runs {
		for _, e := range r.Events {
			if e.Def != 0 {
				if seen[int(e.Def)] {
					t.Fatalf("object %d reused across runs", int(e.Def))
				}
				seen[int(e.Def)] = true
			}
		}
	}
}

func TestStaticCheckOfProgram(t *testing.T) {
	// End to end: compile the leaky program and statically verify it
	// against the correct stdio specification — the leak is reported.
	p := mustParse(leakySrc)
	program, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	spec := specs.Stdio().FA
	ok, err := verify.Conforms(program, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("leaky program reported conforming")
	}
	violations, err := verify.Static(program, spec, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	foundLeak := false
	for _, v := range violations {
		if v.Trace.Key() == "X = fopen()" {
			foundLeak = true
		}
	}
	if !foundLeak {
		t.Errorf("leak not among violations: %v", violations)
	}

	// The repaired program conforms.
	fixed := mustParse(`
prog fixed {
  X := fopen();
  loop { fread(X); }
  fclose(X);
}`)
	fixedFA, err := fixed.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ok, err = verify.Conforms(fixedFA, spec)
	if err != nil || !ok {
		t.Errorf("fixed program conforms = %v, %v", ok, err)
	}
}

func TestMineFromProgramRuns(t *testing.T) {
	// Dynamic pipeline: execute the program, mine a spec, confirm the
	// mined spec accepts both the close and leak behaviours (the bug the
	// debugging method then removes).
	p := mustParse(leakySrc)
	runs := p.Runs(rand.New(rand.NewSource(7)), 60, ExecOptions{})
	miner := mine.Miner{FrontEnd: mine.FrontEnd{Seeds: []string{"fopen"}, FollowDerived: true}}
	mined, scenarios, err := miner.Mine("leaky-mined", runs)
	if err != nil {
		t.Fatal(err)
	}
	if scenarios.Total() != 60 {
		t.Fatalf("scenarios = %d", scenarios.Total())
	}
	if !mined.Accepts(trace.ParseEvents("", "X = fopen()", "fclose(X)")) {
		t.Error("mined spec rejects the close path")
	}
	if !mined.Accepts(trace.ParseEvents("", "X = fopen()")) {
		t.Error("mined spec rejects the leak path (should have been trained on it)")
	}
}

func TestVarsAndProject(t *testing.T) {
	p := mustParse(`
prog two {
  X := fopen();
  Y := popen();
  copy(X, Y);
  loop { fread(X); }
  fclose(X);
  choice { pclose(Y); } or { skip; }
}`)
	vars := p.Vars()
	if len(vars) != 2 || vars[0] != "X" || vars[1] != "Y" {
		t.Fatalf("Vars = %v", vars)
	}
	// X's projection keeps fopen/copy/fread/fclose; Y renames to "_" in
	// shared calls.
	px := p.Project("X")
	fx, err := px.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !fx.Accepts(trace.ParseEvents("", "X = fopen()", "copy(X, _)", "fread(X)", "fclose(X)")) {
		t.Errorf("X projection wrong:\n%s", px)
	}
	if fx.Accepts(trace.ParseEvents("", "X = fopen()")) {
		t.Error("X projection lost mandatory close")
	}
	// Y's projection: the skip branch makes pclose optional.
	py := p.Project("Y")
	fy, err := py.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !fy.Accepts(trace.ParseEvents("", "X = popen()", "copy(_, X)", "pclose(X)")) {
		t.Errorf("Y projection wrong:\n%s", py)
	}
	if !fy.Accepts(trace.ParseEvents("", "X = popen()", "copy(_, X)")) {
		t.Error("Y projection lost the skip branch")
	}
}

func TestProjectionMatchesFrontEnd(t *testing.T) {
	// The static projection and the dynamic front end agree: every
	// scenario the front end extracts from an execution is accepted by the
	// corresponding projection's automaton.
	p := mustParse(leakySrc)
	proj, err := p.Project("X").Compile()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	fe := mine.FrontEnd{Seeds: []string{"fopen"}, FollowDerived: true}
	for i := 0; i < 40; i++ {
		events, _ := p.Execute(rng, 1, ExecOptions{})
		for _, sc := range fe.Extract(mine.Run{ID: "r", Events: events}) {
			if !proj.Accepts(sc) {
				t.Fatalf("projection rejects dynamic scenario %q", sc.Key())
			}
		}
	}
}

// mustParse is Parse that panics on error, for program literals.
func mustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}
