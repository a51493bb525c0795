package verify

import (
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/specs"
	"repro/internal/trace"
)

func TestStaticFindsViolations(t *testing.T) {
	// The stdio program model includes leaky and crossed-close behaviours;
	// the correct spec must flag them, shortest first.
	stdio := specs.Stdio()
	program, err := specs.ProgramFA("stdio", stdio.Model)
	if err != nil {
		t.Fatal(err)
	}
	violations, err := Static(program, stdio.FA, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Fatal("no static violations found")
	}
	// Shortest-first ordering.
	for i := 1; i < len(violations); i++ {
		if violations[i].Trace.Len() < violations[i-1].Trace.Len() {
			t.Fatal("violations not shortest-first")
		}
	}
	// Every reported trace is producible by the program and rejected by
	// the spec.
	sawCross, sawLeak := false, false
	for _, v := range violations {
		if !program.Accepts(v.Trace) {
			t.Errorf("violation %q not a program behaviour", v.Trace.Key())
		}
		if stdio.FA.Accepts(v.Trace) {
			t.Errorf("violation %q accepted by the spec", v.Trace.Key())
		}
		key := v.Trace.Key()
		if strings.Contains(key, "popen") && strings.Contains(key, "fclose") {
			sawCross = true
		}
		if strings.HasSuffix(key, "fread(X)") {
			sawLeak = true
		}
	}
	if !sawCross || !sawLeak {
		t.Errorf("expected crossed-close and leak violations (cross=%v leak=%v)", sawCross, sawLeak)
	}
}

func TestStaticAgainstBuggySpec(t *testing.T) {
	// Against the buggy Figure 1 spec, the correct popen;pclose behaviour
	// shows up as a violation — the spec-gap case the debugging method
	// labels good.
	stdio := specs.Stdio()
	program, err := specs.ProgramFA("stdio", stdio.Model)
	if err != nil {
		t.Fatal(err)
	}
	set, violations, err := StaticSet(program, specs.FigureOneFA(), 8, 200)
	if err != nil {
		t.Fatal(err)
	}
	if set.Total() != len(violations) {
		t.Fatalf("set/violations mismatch: %d vs %d", set.Total(), len(violations))
	}
	want := trace.ParseEvents("", "X = popen()", "pclose(X)")
	if set.ClassOfKey(want.Key()) < 0 {
		t.Error("popen;pclose not among static violations of the buggy spec")
	}
}

func TestConforms(t *testing.T) {
	stdio := specs.Stdio()
	program, err := specs.ProgramFA("stdio", stdio.Model)
	if err != nil {
		t.Fatal(err)
	}
	// The full program model (with error behaviours) does not conform.
	ok, err := Conforms(program, stdio.FA)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("buggy program model reported conforming")
	}
	// The spec conforms to itself.
	ok, err = Conforms(stdio.FA, stdio.FA)
	if err != nil || !ok {
		t.Errorf("self-conformance: %v, %v", ok, err)
	}
	// Good-only program model conforms to the spec.
	goodOnly, err := specs.DeriveFA("good", stdio.Model)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = Conforms(goodOnly, stdio.FA)
	if err != nil || !ok {
		t.Errorf("good-only conformance: %v, %v", ok, err)
	}
}

func TestConformsAcrossCorpus(t *testing.T) {
	// For every corpus spec: the good-derived FA conforms, the full
	// program model does not (all models inject errors).
	for _, s := range specs.All() {
		program, err := specs.ProgramFA(s.Name, s.Model)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		ok, err := Conforms(program, s.FA)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if ok {
			t.Errorf("%s: erroneous program model conforms", s.Name)
		}
		violations, err := Static(program, s.FA, 10, 5)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if len(violations) == 0 {
			t.Errorf("%s: Conforms=false but no bounded violation found", s.Name)
		}
	}
}

// TestStaticWildcardSpec checks a specification with a wildcard against a
// program model: Static must report exactly the program's bounded
// behaviours the specification rejects, in shortlex order, and Conforms
// must agree with it.
func TestStaticWildcardSpec(t *testing.T) {
	spec := fa.MustCompile("open-any-close", "X = fopen() . fclose(X)")
	program := fa.MustCompile("prog", "X = fopen() (fread(X) | fwrite(X))? (fread(X) | fclose(X))?")
	const maxLen, limit = 10, 100
	var want []string
	for _, tr := range program.Enumerate(maxLen, 1<<16) {
		if !spec.Accepts(tr) && len(want) < limit {
			want = append(want, tr.Key())
		}
	}
	got, err := Static(program, spec, maxLen, limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Static found %d violations, the bounded oracle %d: %v", len(got), len(want), want)
	}
	for i, v := range got {
		if v.Trace.Key() != want[i] {
			t.Errorf("violation %d = %q, want %q", i, v.Trace.Key(), want[i])
		}
	}
	ok, err := Conforms(program, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ok != (len(want) == 0) {
		t.Errorf("Conforms = %v with %d bounded violations", ok, len(want))
	}
	conforming := fa.MustCompile("good", "X = fopen() (fread(X) | fwrite(X)) fclose(X)")
	if ok, err := Conforms(conforming, spec); err != nil || !ok {
		t.Errorf("Conforms(good program) = %v, %v", ok, err)
	}
	if vs, err := Static(conforming, spec, maxLen, limit); err != nil || len(vs) != 0 {
		t.Errorf("Static(good program) = %v, %v", vs, err)
	}
	// A wildcard in the program stands for any event, including events
	// neither automaton names; the joint alphabet's fresh other() symbol
	// reports that behaviour.
	wild := fa.MustCompile("any-middle", "X = fopen() . fclose(X)")
	exact := fa.MustCompile("read-middle", "X = fopen() fread(X) fclose(X)")
	vs, err := Static(wild, exact, maxLen, limit)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, v := range vs {
		keys = append(keys, v.Trace.Key())
	}
	want = []string{
		"X = fopen(); X = fopen(); fclose(X)",
		"X = fopen(); fclose(X); fclose(X)",
		"X = fopen(); other(); fclose(X)",
	}
	if strings.Join(keys, "|") != strings.Join(want, "|") {
		t.Errorf("Static(wildcard program) = %q, want %q", keys, want)
	}
}
