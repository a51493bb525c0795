package learn_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/learn"
	"repro/internal/specs"
)

// defaultPrepareInput returns the multiset exp.Prepare learns the named
// spec's reference FA from under the default seed.
func defaultPrepareInput(t testing.TB, name string) learnInput {
	t.Helper()
	sp, ok := specs.ByName(name)
	if !ok {
		t.Fatalf("no %s spec", name)
	}
	return prepareInput(t, sp, exp.DefaultConfig().Seed)
}

// BenchmarkLearn times the default learner on exp.Prepare's inputs: XtFree
// (900 traces, a 211-state PTA), XFreeGC and the small XGetSelOwner.
func BenchmarkLearn(b *testing.B) {
	for _, name := range []string{"XtFree", "XFreeGC", "XGetSelOwner"} {
		in := defaultPrepareInput(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := learn.DefaultLearner.Learn("x", in.traces); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLearnAllocs pins the learner's allocations on XtFree's default-seed
// input: labels and k-string keys are interned once per call and the
// scans reuse one scratch, so the whole learn allocates a few hundred
// times rather than once per k-string.
func TestLearnAllocs(t *testing.T) {
	in := defaultPrepareInput(t, "XtFree")
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := learn.DefaultLearner.Learn("x", in.traces); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1000 {
		t.Fatalf("DefaultLearner.Learn on XtFree allocates %v times, want < 1000", allocs)
	}
}
