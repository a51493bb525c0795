package fa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// testing/quick drivers over random automata and traces: quick supplies
// seeds, the helpers derive structures deterministically from them.

func faFromSeed(seed int64) *FA {
	return randomFA(rand.New(rand.NewSource(seed)))
}

func traceFromSeed(seed int64, maxLen int) trace.Trace {
	return randomTrace(rand.New(rand.NewSource(seed)), maxLen)
}

func TestQuickDeterminizeSound(t *testing.T) {
	err := quick.Check(func(faSeed, trSeed int64) bool {
		f := faFromSeed(faSeed)
		d := determinized(t, f)
		tc := traceFromSeed(trSeed, 6)
		return d.Accepts(tc) == f.Accepts(tc)
	}, &quick.Config{MaxCount: 250})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickExecutedSubsetOfTransitions(t *testing.T) {
	// Executed sets are always subsets of the transition index range and
	// empty exactly when the trace is rejected.
	err := quick.Check(func(faSeed, trSeed int64) bool {
		f := faFromSeed(faSeed)
		tc := traceFromSeed(trSeed, 6)
		ex, ok := f.Executed(tc)
		if ok != f.Accepts(tc) {
			return false
		}
		if !ok {
			return ex.Empty()
		}
		max := -1
		ex.Range(func(i int) bool {
			if i > max {
				max = i
			}
			return true
		})
		if max >= f.NumTransitions() {
			return false
		}
		// Accepted nonempty traces execute at least one transition.
		return tc.Len() == 0 || !ex.Empty()
	}, &quick.Config{MaxCount: 250})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionIntersectDuality(t *testing.T) {
	err := quick.Check(func(aSeed, bSeed, trSeed int64) bool {
		a, b := faFromSeed(aSeed), faFromSeed(bSeed)
		tc := traceFromSeed(trSeed, 5)
		u := Union(a, b).Accepts(tc)
		i := intersect(t, a, b).Accepts(tc)
		aa, ab := a.Accepts(tc), b.Accepts(tc)
		return u == (aa || ab) && i == (aa && ab)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickTrimPreservesAcceptance(t *testing.T) {
	err := quick.Check(func(faSeed, trSeed int64) bool {
		f := faFromSeed(faSeed)
		tc := traceFromSeed(trSeed, 6)
		return f.Trim().Accepts(tc) == f.Accepts(tc)
	}, &quick.Config{MaxCount: 250})
	if err != nil {
		t.Fatal(err)
	}
}
