package learn

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

func TestKTailsAcceptsTrainingSet(t *testing.T) {
	for _, k := range []int{0, 1, 2, 3} {
		res, err := KTails{K: k}.Learn("kt", figure8())
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range figure8() {
			if !res.FA.Accepts(tc) {
				t.Errorf("k=%d: rejects training trace %q", k, tc.Key())
			}
		}
		if !res.FA.IsDeterministic() {
			t.Errorf("k=%d: nondeterministic result", k)
		}
	}
}

func TestKTailsGeneralizesLoops(t *testing.T) {
	traces := []trace.Trace{
		tr("a()", "z()"),
		tr("a()", "a()", "z()"),
		tr("a()", "a()", "a()", "z()"),
		tr("a()", "a()", "a()", "a()", "z()"),
	}
	res := learnKTails(t, 1, "loop", traces)
	if !res.FA.Accepts(tr("a()", "a()", "a()", "a()", "a()", "a()", "z()")) {
		t.Error("k-tails failed to fold the loop")
	}
}

func TestKTailsCoarsensWithSmallerK(t *testing.T) {
	// Larger k distinguishes more futures, so the automaton cannot shrink
	// when k grows.
	traces := figure8()
	prev := -1
	for _, k := range []int{1, 2, 3, 4} {
		res := learnKTails(t, k, "kt", traces)
		if prev >= 0 && res.FA.NumStates() < prev {
			t.Errorf("k=%d gave fewer states (%d) than k-1 (%d)", k, res.FA.NumStates(), prev)
		}
		prev = res.FA.NumStates()
	}
}

func TestKTailsExactEquivalenceMergesIdenticalFutures(t *testing.T) {
	// Two branches with identical futures merge even when frequencies
	// differ wildly — the frequency-blindness that distinguishes k-tails
	// from sk-strings.
	var traces []trace.Trace
	for i := 0; i < 50; i++ {
		traces = append(traces, tr("a()", "x()", "end()"))
	}
	traces = append(traces, tr("b()", "x()", "end()")) // rare branch
	res := learnKTails(t, 3, "merge", traces)
	// The states after a() and after b() have identical 3-tails
	// (x;end$), so they merge: the automaton has one shared suffix path.
	// Count states: start, merged mid, after-x, accept = 4.
	if res.FA.NumStates() != 4 {
		t.Errorf("states = %d, want 4 (shared suffix)", res.FA.NumStates())
	}
}

func TestKTailsDeterministicOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ops := []string{"a()", "b()", "c()"}
	for iter := 0; iter < 30; iter++ {
		var traces []trace.Trace
		for i := 0; i < 1+rng.Intn(10); i++ {
			var evs []string
			for j := 0; j < rng.Intn(5); j++ {
				evs = append(evs, ops[rng.Intn(len(ops))])
			}
			traces = append(traces, tr(evs...))
		}
		a := learnKTails(t, 2, "x", traces)
		b := learnKTails(t, 2, "x", traces)
		if a.FA.String() != b.FA.String() {
			t.Fatalf("iter %d: nondeterministic learner output", iter)
		}
		for _, tc := range traces {
			if !a.FA.Accepts(tc) {
				t.Fatalf("iter %d: training trace rejected", iter)
			}
		}
	}
}

// learnKTails runs k-tails with tail depth k, failing the test on an error.
func learnKTails(t *testing.T, k int, name string, traces []trace.Trace) *Result {
	t.Helper()
	res, err := KTails{K: k}.Learn(name, traces)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
