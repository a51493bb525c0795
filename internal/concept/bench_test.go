package concept

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/trace"
)

// benchContext builds a deterministic random context big enough that the
// asymptotic differences show: ~120 objects × 40 attributes, sparse rows.
func benchContext() *Context {
	rng := rand.New(rand.NewSource(99))
	objs := make([]string, 120)
	for i := range objs {
		objs[i] = "o"
	}
	attrs := make([]string, 40)
	for i := range attrs {
		attrs[i] = "a"
	}
	c := NewContext(objs, attrs)
	for o := 0; o < len(objs); o++ {
		for a := 0; a < len(attrs); a++ {
			if rng.Intn(4) == 0 {
				c.Relate(o, a)
			}
		}
	}
	return c
}

// benchRefAndTraces builds a mid-size reference automaton and a trace
// multiset sampled from its language with heavy class duplication — the
// shape TraceContext sees in a Cable session (many traces, few classes).
func benchRefAndTraces() (*fa.FA, []trace.Trace) {
	rng := rand.New(rand.NewSource(2003))
	const numStates, numSyms, numEdges = 20, 15, 70
	alpha := make([]event.Event, numSyms)
	for i := range alpha {
		alpha[i] = event.MustParse(fmt.Sprintf("op%d(X)", i))
	}
	bld := fa.NewBuilder("bench-ref")
	states := bld.States(numStates)
	bld.Start(states[0])
	for i := 0; i+1 < numStates; i++ {
		bld.Edge(states[i], alpha[i%numSyms], states[i+1])
	}
	bld.Accept(states[numStates-1])
	bld.Accept(states[numStates/2])
	for i := numStates - 1; i < numEdges; i++ {
		bld.Edge(states[rng.Intn(numStates)], alpha[rng.Intn(numSyms)], states[rng.Intn(numStates)])
	}
	ref := bld.MustBuild()
	classes := make([]trace.Trace, 0, 20)
	for len(classes) < 20 {
		if t, ok := ref.Sample(rng, 25); ok && len(t.Events) > 0 {
			classes = append(classes, t)
		}
	}
	traces := make([]trace.Trace, 100)
	for i := range traces {
		traces[i] = classes[i%len(classes)]
	}
	return ref, traces
}

// BenchmarkTraceContext measures Step 1's context construction end to end:
// one compiled simulation per trace, executed rows into the context.
//
//   - Warm reuses one FA for the 100 traces (20 classes), so its plan
//     compiles once for the whole run.
//   - Cold reads a fresh FA outside the timer before every iteration, so
//     each iteration compiles the plan, as a cabled create does. Reps
//     passes the 20 class representatives, as production callers do; Dups
//     passes the 100 traces with their duplicates.
func BenchmarkTraceContext(b *testing.B) {
	ref, traces := benchRefAndTraces()
	b.Run("Warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TraceContext(traces, ref); err != nil {
				b.Fatal(err)
			}
		}
	})
	var text bytes.Buffer
	if err := fa.Write(&text, ref); err != nil {
		b.Fatal(err)
	}
	cold := func(traces []trace.Trace) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh, err := fa.Read(bytes.NewReader(text.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := TraceContext(traces, fresh); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("Cold/Reps", cold(trace.NewSet(traces...).Representatives()))
	b.Run("Cold/Dups", cold(traces))
}

func BenchmarkBuild(b *testing.B) {
	c := benchContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Build(c).Len() == 0 {
			b.Fatal("empty lattice")
		}
	}
}

// relink recomputes every cover edge of a built lattice with link(0),
// starting from a fresh scratch as a build does.
func (l *Lattice) relink(cc context.Context) error {
	l.parents, l.children = nil, nil
	err := l.link(cc, 0)
	l.godin = nil
	return err
}

// BenchmarkLinkCovers isolates Hasse-diagram linking: the lattice is built
// once, then relinked. Fast is the size-bucketed, index-pruned production
// path; AllPairs is the all-pairs-plus-dominated-check loop it replaced.
func BenchmarkLinkCovers(b *testing.B) {
	l := Build(benchContext())
	b.Run("Fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.relink(context.Background())
		}
	})
	b.Run("AllPairs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linkCoversAllPairs(l)
		}
	})
}

// linkCoversAllPairs is the pre-optimization cover computation, kept in the
// benchmark suite as the comparison baseline.
func linkCoversAllPairs(l *Lattice) ([][]int, [][]int) {
	n := len(l.concepts)
	parents := make([][]int, n)
	children := make([][]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sizes := make([]int, n)
	for i, c := range l.concepts {
		sizes[i] = c.Extent.Len()
	}
	sort.Slice(order, func(i, j int) bool {
		if sizes[order[i]] != sizes[order[j]] {
			return sizes[order[i]] < sizes[order[j]]
		}
		return order[i] < order[j]
	})
	for idx, ci := range order {
		ext := l.concepts[ci].Extent
		var covers []int
		for _, cj := range order[idx+1:] {
			sup := l.concepts[cj].Extent
			if sizes[cj] == sizes[ci] || !ext.SubsetOf(sup) {
				continue
			}
			dominated := false
			for _, k := range covers {
				if l.concepts[k].Extent.SubsetOf(sup) {
					dominated = true
					break
				}
			}
			if !dominated {
				covers = append(covers, cj)
			}
		}
		for _, cj := range covers {
			parents[ci] = append(parents[ci], cj)
			children[cj] = append(children[cj], ci)
		}
	}
	return parents, children
}

// TestLinkCoversMatchesAllPairs pins the optimized linker to the original
// all-pairs implementation on random contexts.
func TestLinkCoversMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 60; iter++ {
		l := Build(randomContext(rng, 12, 9))
		parents, children := linkCoversAllPairs(l)
		for i := range parents {
			sort.Ints(parents[i])
			sort.Ints(children[i])
		}
		for id := range l.concepts {
			if !equalInts(l.Parents(id), parents[id]) {
				t.Fatalf("iter %d: parents of %d: fast %v, all-pairs %v", iter, id, l.Parents(id), parents[id])
			}
			if !equalInts(l.Children(id), children[id]) {
				t.Fatalf("iter %d: children of %d: fast %v, all-pairs %v", iter, id, l.Children(id), children[id])
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// byIntentScan is the pre-optimization linear-scan lookup, the baseline for
// the query benchmarks.
func (l *Lattice) byIntentScan(intent *bitset.Set) int {
	for _, c := range l.concepts {
		if c.Intent.Equal(intent) {
			return c.ID
		}
	}
	panic("concept: intent not in lattice (not closed?)")
}

// BenchmarkLatticeQueries measures the byIntent-backed query family, both
// through the hash index (production) and the linear scan it replaced.
func BenchmarkLatticeQueries(b *testing.B) {
	l := Build(benchContext())
	n := l.Len()
	b.Run("MeetJoin/Indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, c := i%n, (i*7+3)%n
			l.Meet(a, c)
			l.Join(a, c)
		}
	})
	b.Run("MeetJoin/Scan", func(b *testing.B) {
		b.ReportAllocs()
		ctx := l.Context()
		for i := 0; i < b.N; i++ {
			a, c := i%n, (i*7+3)%n
			ext := bitset.Intersect(l.Concept(a).Extent, l.Concept(c).Extent)
			l.byIntentScan(ctx.Sigma(ext))
			intent := bitset.Intersect(l.Concept(a).Intent, l.Concept(c).Intent)
			l.byIntentScan(ctx.Sigma(ctx.Tau(intent)))
		}
	})
	b.Run("ObjectConcept/Indexed", func(b *testing.B) {
		b.ReportAllocs()
		numObj := l.Context().NumObjects()
		for i := 0; i < b.N; i++ {
			l.ObjectConcept(i % numObj)
		}
	})
	b.Run("ObjectConcept/Scan", func(b *testing.B) {
		b.ReportAllocs()
		ctx := l.Context()
		numObj := ctx.NumObjects()
		for i := 0; i < b.N; i++ {
			o := i % numObj
			l.byIntentScan(ctx.Sigma(bitset.FromSlice([]int{o})))
		}
	})
	b.Run("AttributeConcept/Indexed", func(b *testing.B) {
		b.ReportAllocs()
		numAttr := l.Context().NumAttributes()
		for i := 0; i < b.N; i++ {
			l.AttributeConcept(i % numAttr)
		}
	})
}
