package verify

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestCheckerMatchesPackageFunctions pins the Checker methods against the
// one-shot package functions over a set with duplicates, including
// violation order (set order, duplicates adjacent) and multiplicities.
func TestCheckerMatchesPackageFunctions(t *testing.T) {
	spec := buggyStdio()
	set := trace.NewSet(
		tr("a", "X = fopen()", "fclose(X)"),
		tr("b", "X = popen()", "pclose(X)"),
		tr("c", "X = popen()", "pclose(X)"),
		tr("d", "X = fopen()", "fread(X)"),
	)
	chk := NewChecker(spec)

	vset, vs := chk.CheckSet(set)
	wantVset, wantVs := CheckSet(spec, set)
	if vset.Total() != wantVset.Total() || vset.NumClasses() != wantVset.NumClasses() {
		t.Fatalf("CheckSet set: got %d/%d, want %d/%d",
			vset.Total(), vset.NumClasses(), wantVset.Total(), wantVset.NumClasses())
	}
	if len(vs) != len(wantVs) {
		t.Fatalf("CheckSet violations: got %d, want %d", len(vs), len(wantVs))
	}
	for i := range vs {
		if vs[i].Trace.ID != wantVs[i].Trace.ID || vs[i].At != wantVs[i].At {
			t.Errorf("violation %d: got %+v, want %+v", i, vs[i], wantVs[i])
		}
	}
	// Duplicate IDs keep their own identity on the fanned-out violations.
	if vs[0].Trace.ID != "b" || vs[1].Trace.ID != "c" || vs[2].Trace.ID != "d" {
		t.Fatalf("violation IDs: %s %s %s", vs[0].Trace.ID, vs[1].Trace.ID, vs[2].Trace.ID)
	}

	acc, rej := chk.Partition(set)
	wantAcc, wantRej := partition(spec, set)
	if acc.Total() != wantAcc.Total() || rej.Total() != wantRej.Total() {
		t.Fatalf("Partition: got %d/%d, want %d/%d",
			acc.Total(), rej.Total(), wantAcc.Total(), wantRej.Total())
	}
	if acc.Total() != 1 || rej.Total() != 3 || rej.NumClasses() != 2 {
		t.Fatalf("Partition shape: acc=%d rej=%d rejClasses=%d",
			acc.Total(), rej.Total(), rej.NumClasses())
	}
}

// TestCheckerCompilesOnce pins the plan-reuse hoist: however many times
// the checker runs, the specification compiles exactly once.
func TestCheckerCompilesOnce(t *testing.T) {
	m := obs.Enable()
	defer obs.Disable()

	spec := buggyStdio()
	set := trace.NewSet(
		tr("a", "X = fopen()", "fclose(X)"),
		tr("b", "X = popen()", "pclose(X)"),
	)
	chk := NewChecker(spec)
	for i := 0; i < 50; i++ {
		chk.CheckSet(set)
		chk.Partition(set)
		chk.Check([]trace.Trace{tr("t", "X = fopen()", "fclose(X)")})
	}
	if got := m.Counter("fa.compile.plans").Value(); got != 1 {
		t.Fatalf("fa.compile.plans = %d after 150 checker calls, want 1", got)
	}
}

// TestCheckerCheckZeroAlloc pins the stream-loop hot path: checking
// accepted traces through a pinned plan allocates nothing per call — in
// particular, no per-call recompilation.
func TestCheckerCheckZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool caching; alloc counts unreliable")
	}
	chk := NewChecker(buggyStdio())
	traces := []trace.Trace{
		tr("a", "X = fopen()", "fread(X)", "fclose(X)"),
		tr("b", "X = popen()", "fwrite(X)", "fclose(X)"),
	}
	allocs := testing.AllocsPerRun(200, func() {
		if vs := chk.Check(traces); vs != nil {
			t.Fatal("accepted traces produced violations")
		}
	})
	if allocs != 0 {
		t.Fatalf("Checker.Check allocates %v per call, want 0", allocs)
	}
}
