package verify

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestCheckerMatchesPackageFunctions pins CheckSet over a set with
// duplicates: violations come in set order with duplicates adjacent, each
// keeps its own trace ID, and the violating set keeps the multiplicities.
func TestCheckerMatchesPackageFunctions(t *testing.T) {
	spec := buggyStdio()
	set := trace.NewSet(
		tr("a", "X = fopen()", "fclose(X)"),
		tr("b", "X = popen()", "pclose(X)"),
		tr("c", "X = popen()", "pclose(X)"),
		tr("d", "X = fopen()", "fread(X)"),
	)
	vset, vs := CheckSet(spec, set)
	if vset.Total() != 3 || vset.NumClasses() != 2 {
		t.Fatalf("CheckSet set: got %d traces in %d classes, want 3 in 2", vset.Total(), vset.NumClasses())
	}
	want := []struct {
		id string
		at int
	}{{"b", 1}, {"c", 1}, {"d", 2}}
	if len(vs) != len(want) {
		t.Fatalf("CheckSet violations: got %d, want %d", len(vs), len(want))
	}
	for i, w := range want {
		if vs[i].Trace.ID != w.id || vs[i].At != w.at {
			t.Errorf("violation %d: got %s at %d, want %s at %d", i, vs[i].Trace.ID, vs[i].At, w.id, w.at)
		}
	}
	if got := vset.Class(0).IDs; len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("violating class IDs = %v, want [b c]", got)
	}
}

// TestCheckerCompilesOnce pins the plan reuse CheckSet relies on: however
// many times it runs, the specification compiles exactly once, because
// FA.Sim caches the plan.
func TestCheckerCompilesOnce(t *testing.T) {
	m := obs.Enable()
	defer obs.Disable()

	spec := buggyStdio()
	set := trace.NewSet(
		tr("a", "X = fopen()", "fclose(X)"),
		tr("b", "X = popen()", "pclose(X)"),
	)
	for i := 0; i < 150; i++ {
		CheckSet(spec, set)
	}
	if got := m.Counter("fa.compile.plans").Value(); got != 1 {
		t.Fatalf("fa.compile.plans = %d after 150 CheckSet calls, want 1", got)
	}
}

// TestCheckerCheckZeroAlloc pins the per-class loop of CheckSet: looking
// the plan up with FA.Sim and simulating accepted traces allocates nothing
// per call — in particular, no per-call recompilation.
func TestCheckerCheckZeroAlloc(t *testing.T) {
	spec := buggyStdio()
	traces := []trace.Trace{
		tr("a", "X = fopen()", "fread(X)", "fclose(X)"),
		tr("b", "X = popen()", "fwrite(X)", "fclose(X)"),
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, tc := range traces {
			if spec.Sim().RejectsAt(tc) >= 0 {
				t.Fatal("accepted trace rejected")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("FA.Sim().RejectsAt allocates %v per call, want 0", allocs)
	}
}
