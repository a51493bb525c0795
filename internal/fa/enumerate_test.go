package fa_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/specs"
	"repro/internal/trace"
)

// enumCases are the (maxLen, limit) pairs the differential test runs: the
// paper pipeline's sample, a cap that never binds, a first-trace probe,
// and the degenerate bounds.
var enumCases = [][2]int{{10, 300}, {6, 100}, {4, 1 << 20}, {8, 1}, {0, 5}, {3, 0}, {-1, 5}}

// randomMultiStartNFA is randomNFA with one to three start states, at
// least one accepting state (without one, (10, 300) walks all 4^10 label
// sequences) and, if wildcards is set, wildcard edges.
func randomMultiStartNFA(rng *rand.Rand, wildcards bool) *fa.FA {
	b := fa.NewBuilder("rand")
	n := 1 + rng.Intn(6)
	states := b.States(n)
	for i := 1 + rng.Intn(3); i > 0; i-- {
		b.Start(states[rng.Intn(n)])
	}
	b.Accept(states[rng.Intn(n)])
	for s := 0; s < n; s++ {
		if rng.Intn(3) == 0 {
			b.Accept(states[s])
		}
	}
	for i := rng.Intn(14); i > 0; i-- {
		from, to := states[rng.Intn(n)], states[rng.Intn(n)]
		if wildcards && rng.Intn(5) == 0 {
			b.WildcardEdge(from, to)
		} else {
			b.Edge(from, testAlpha[rng.Intn(len(testAlpha))], to)
		}
	}
	return b.MustBuild()
}

// enumAutomata lists the automata the differential test enumerates: every
// corpus FA and buggy FA, the nondeterministic automata the corpus FAs are
// minimized from, the FAs the default learner mines from each spec's
// language sample, and random NFAs.
func enumAutomata(t *testing.T) []*fa.FA {
	var out []*fa.FA
	for _, sp := range corpus() {
		b := buggy(t, sp)
		out = append(out, sp.FA, b)
		sample := append(sp.FA.Enumerate(8, 200), b.Enumerate(8, 200)...)
		out = append(out, learn.DefaultLearner.MustLearn(sp.Name+"-learned", sample).FA)
	}
	out = append(out, corpusNFAs()...)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		out = append(out, randomMultiStartNFA(rng, i%2 == 1))
	}
	return append(out, fa.NewBuilder("empty").MustBuild())
}

// TestEnumerateMatchesOracle pins Enumerate to the reference enumeration:
// the same traces in the same order, events and nil-ness included.
func TestEnumerateMatchesOracle(t *testing.T) {
	for i, f := range enumAutomata(t) {
		for _, c := range enumCases {
			got := f.Enumerate(c[0], c[1])
			want := fa.OracleEnumerate(f, c[0], c[1])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("automaton %d (%s), Enumerate(%d, %d):\n got %s\nwant %s\n%s",
					i, f.Name(), c[0], c[1], traceKeys(got), traceKeys(want), f)
			}
		}
	}
}

func traceKeys(ts []trace.Trace) string {
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = t.Key()
	}
	return fmt.Sprintf("%d %q", len(ts), keys)
}

// TestEnumerateAllocs pins the enumeration's allocations: one event slice
// per emitted trace, plus per-call tables and slabs that grow by doubling.
func TestEnumerateAllocs(t *testing.T) {
	sp, ok := specs.ByName("XtFree")
	if !ok {
		t.Fatal("no XtFree spec")
	}
	n := len(sp.FA.Enumerate(10, 300))
	allocs := testing.AllocsPerRun(5, func() { sp.FA.Enumerate(10, 300) })
	if allocs >= float64(n+100) {
		t.Fatalf("Enumerate(10, 300) on XtFree allocates %v times for %d traces, want < %d", allocs, n, n+100)
	}
}

// BenchmarkEnumerate times the paper pipeline's language sample,
// Enumerate(10, 300), on the largest spec, a mid-sized one and a small
// one.
func BenchmarkEnumerate(b *testing.B) {
	for _, name := range []string{"XtFree", "XFreeGC", "XGetSelOwner"} {
		sp, ok := specs.ByName(name)
		if !ok {
			b.Fatalf("no %s spec", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp.FA.Enumerate(10, 300)
			}
		})
	}
}
