package fa

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/trace"
)

// benchFA builds a deterministic X11-scale automaton: ~28 states, a
// 25-symbol alphabet, and ~120 transitions including a few wildcard edges,
// roughly the shape of the paper's largest mined specifications.
func benchFA() *FA {
	rng := rand.New(rand.NewSource(2003))
	const numStates, numSyms, numEdges = 28, 25, 120
	alpha := make([]event.Event, numSyms)
	for i := range alpha {
		alpha[i] = event.MustParse(fmt.Sprintf("op%d(X)", i))
	}
	b := NewBuilder("bench-x11")
	states := b.States(numStates)
	b.Start(states[0])
	// A spine guarantees long accepted traces exist.
	for i := 0; i+1 < numStates; i++ {
		b.Edge(states[i], alpha[i%numSyms], states[i+1])
	}
	b.Accept(states[numStates-1])
	b.Accept(states[numStates/2])
	for i := numStates - 1; i < numEdges; i++ {
		from := states[rng.Intn(numStates)]
		to := states[rng.Intn(numStates)]
		if i%17 == 0 {
			b.WildcardEdge(from, to)
		} else {
			b.Edge(from, alpha[rng.Intn(numSyms)], to)
		}
	}
	return b.MustBuild()
}

// benchTraces samples accepted traces from the automaton's language (mixed
// with a few rejected mutants) so Executed exercises the full
// forward/backward pass most of the time.
func benchTraces(f *FA, n int) []trace.Trace {
	rng := rand.New(rand.NewSource(7))
	out := make([]trace.Trace, 0, n)
	for len(out) < n {
		t, ok := f.Sample(rng, 40)
		if !ok || len(t.Events) == 0 {
			continue
		}
		if len(out)%8 == 7 {
			// Mutate one event to an out-of-language symbol.
			t.Events = append([]event.Event(nil), t.Events...)
			t.Events[rng.Intn(len(t.Events))] = event.MustParse("bogus()")
		}
		out = append(out, t)
	}
	return out
}

// BenchmarkExecuted compares the legacy per-call simulation loop with the
// compiled plan. This is the acceptance benchmark for the compiled
// simulator: the Compiled variant must be >=3x faster and >=10x lighter in
// allocations than Legacy.
func BenchmarkExecuted(b *testing.B) {
	f := benchFA()
	traces := benchTraces(f, 32)
	b.Run("Legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.legacyExecuted(traces[i%len(traces)])
		}
	})
	b.Run("Compiled", func(b *testing.B) {
		sim := f.Sim()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Executed(traces[i%len(traces)])
		}
	})
}

// BenchmarkAccepts compares the legacy acceptance loop with the compiled
// rolling-frontier simulation.
func BenchmarkAccepts(b *testing.B) {
	f := benchFA()
	traces := benchTraces(f, 32)
	b.Run("Legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.legacyAccepts(traces[i%len(traces)])
		}
	})
	b.Run("Compiled", func(b *testing.B) {
		sim := f.Sim()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Accepts(traces[i%len(traces)])
		}
	})
}
