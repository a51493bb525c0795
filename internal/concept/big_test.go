package concept

import (
	"context"
	"sync"
	"testing"

	"repro/internal/fa"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// bigCorpusModel is a file-handle protocol with repetition bounds wide
// enough that the sampled workload spans well over 10⁴ distinct trace
// classes — the production corpus size the paper's 90 full X11 traces
// imply, two orders of magnitude past the Table 2 fixtures.
func bigCorpusModel() xtrace.Model {
	return xtrace.Model{
		Scenarios: []xtrace.Scenario{
			{Name: "ok", Good: true, Weight: 4, Events: []xtrace.Event{
				xtrace.Ev("open(X)"),
				xtrace.Rep("cfg(X)", 0, 4),
				xtrace.Rep("read(X)", 0, 39),
				xtrace.Rep("write(X)", 0, 39),
				xtrace.Ev("close(X)"),
			}},
			{Name: "leak", Good: false, Kind: xtrace.Leak, Weight: 2, Events: []xtrace.Event{
				xtrace.Ev("open(X)"),
				xtrace.Rep("read(X)", 0, 39),
				xtrace.Rep("write(X)", 0, 39),
			}},
			{Name: "seek-scan", Good: true, Weight: 2, Events: []xtrace.Event{
				xtrace.Ev("open(X)"),
				xtrace.Rep("seek(X)", 1, 30),
				xtrace.Rep("read(X)", 0, 29),
				xtrace.Opt("flush(X)"),
				xtrace.Ev("close(X)"),
				xtrace.Ev("free(X)"),
			}},
			{Name: "double-free", Good: false, Kind: xtrace.Misuse, Weight: 1, Events: []xtrace.Event{
				xtrace.Ev("open(X)"),
				xtrace.Rep("read(X)", 0, 19),
				xtrace.Ev("close(X)"),
				xtrace.Ev("free(X)"),
				xtrace.Rep("free(X)", 1, 2),
			}},
		},
	}
}

// bigCorpusRef hand-builds the reference FA for the protocol: it accepts
// every trace the model can emit (including the buggy scenarios — the
// paper's reference FA "recognizes (at least)" the traces being debugged)
// while giving each protocol stage its own state, so executed-transition
// rows vary by stage and not just by operation.
func bigCorpusRef() *fa.FA {
	b := fa.NewBuilder("bigcorpus-ref")
	start, active, closed, freed := b.State(), b.State(), b.State(), b.State()
	b.Start(start)
	b.EdgeStr(start, "open(X)", active)
	for _, op := range []string{"cfg(X)", "read(X)", "write(X)", "seek(X)", "flush(X)"} {
		b.EdgeStr(active, op, active)
	}
	b.EdgeStr(active, "close(X)", closed)
	b.EdgeStr(closed, "free(X)", freed)
	b.EdgeStr(freed, "free(X)", freed)
	b.Accept(active, closed, freed)
	return b.MustBuild()
}

// bigCorpusClasses samples the model until the class multiset is in hand;
// n is the sample count, not the class count.
func bigCorpusClasses(n int) *trace.Set {
	gen := xtrace.Generator{Model: bigCorpusModel(), Seed: 20030609}
	set, _ := gen.ScenarioSet(n)
	return set
}

// The full-size corpus context is built once and shared by the benchmarks
// below; at 60k samples it covers >10⁴ distinct classes.
var (
	bigOnce sync.Once
	bigFC   *Context
	bigErr  error
)

func bigCorpusContext() (*Context, error) {
	bigOnce.Do(func() {
		set := bigCorpusClasses(60000)
		bigFC, bigErr = TraceContext(set.Representatives(), bigCorpusRef())
	})
	return bigFC, bigErr
}

// TestBigCorpusScale pins the corpus generator to the scale the benchmark
// claims: at least 10⁴ distinct trace classes, all accepted by the
// reference FA. Skipped under -short (corpus generation takes seconds).
func TestBigCorpusScale(t *testing.T) {
	if testing.Short() {
		t.Skip("big corpus generation under -short")
	}
	if err := bigCorpusModel().Validate(); err != nil {
		t.Fatal(err)
	}
	fc, err := bigCorpusContext()
	if err != nil {
		t.Fatal(err)
	}
	if fc.NumObjects() < 10000 {
		t.Fatalf("big corpus has %d trace classes, want ≥ 10000", fc.NumObjects())
	}
}

// TestBigCorpusParallelDeterministic builds the lattice of a mid-size
// slice of the corpus (real sparse-path territory: thousands of objects,
// hundreds of extent words) twice, the second time from a copy of the
// context, and requires identical results: no build step may depend on
// map iteration order or on state the first build left behind. (The name
// dates from when the second build linked covers with a worker pool.) The
// independent O(n²·|O|) AllPairs oracle runs only without -short.
func TestBigCorpusParallelDeterministic(t *testing.T) {
	set := bigCorpusClasses(4000)
	fc, err := TraceContext(set.Representatives(), bigCorpusRef())
	if err != nil {
		t.Fatal(err)
	}
	l := Build(fc)
	requireByteIdentical(t, Build(fc.clone()), l, "second build")
	if testing.Short() {
		t.Skip("AllPairs oracle at big-corpus scale under -short")
	}
	parents, children := linkCoversAllPairs(l)
	for i := range parents {
		insertionSortInts(parents[i])
		insertionSortInts(children[i])
	}
	for id := range l.concepts {
		if !equalInts(l.Parents(id), parents[id]) || !equalInts(l.Children(id), children[id]) {
			t.Fatalf("covers of %d disagree with the all-pairs oracle", id)
		}
	}
}

// BenchmarkLatticeBig measures the build hot path at production corpus
// scale: >10⁴ trace-class objects, wide extents, heavy row duplication.
// Setup (trace generation, FA simulation) happens once outside the timer.
func BenchmarkLatticeBig(b *testing.B) {
	fc, err := bigCorpusContext()
	if err != nil {
		b.Fatal(err)
	}
	if fc.NumObjects() < 10000 {
		b.Fatalf("big corpus has %d trace classes, want ≥ 10000", fc.NumObjects())
	}
	b.Run("Build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Build(fc).Len() == 0 {
				b.Fatal("empty lattice")
			}
		}
	})
	l := Build(fc)
	b.Run("LinkCovers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := l.relink(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
