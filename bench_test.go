// Benchmarks regenerating the measurements behind every table and figure
// of the evaluation (Section 5), plus ablations of the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"strings"
	"testing"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/mine"
	"repro/internal/prog"
	"repro/internal/specs"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/workspace"
	"repro/internal/xtrace"
)

func benchCfg() exp.Config {
	cfg := exp.DefaultConfig()
	cfg.RandomTrials = 64
	return cfg
}

// mustPrepare prepares a spec experiment or fails the benchmark.
func mustPrepare(b *testing.B, name string) *exp.Experiment {
	b.Helper()
	spec, ok := specs.ByName(name)
	if !ok {
		b.Fatalf("unknown spec %q", name)
	}
	e, err := exp.Prepare(spec, benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// representative specs spanning the evaluation's size range.
var benchSpecs = []string{"XGetSelOwner", "XInternAtom", "XFreeGC", "RegionsBig", "XtFree"}

// BenchmarkTable1_DeriveFAs measures deriving all seventeen correct
// specification automata (the content of Table 1).
func BenchmarkTable1_DeriveFAs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := exp.Table1(); len(rows) != 17 {
			b.Fatal("wrong corpus")
		}
	}
}

// BenchmarkTable2_Lattice measures concept-lattice construction per
// specification — the "cost of concept analysis" that Table 2 reports
// (the paper's maximum was ~22 s on 1998 hardware).
func BenchmarkTable2_Lattice(b *testing.B) {
	for _, name := range benchSpecs {
		e := mustPrepare(b, name)
		reps := e.Set.Representatives()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := concept.BuildFromTraces(reps, e.Ref); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLatticeOps measures the byIntent-backed lattice queries (Meet,
// Join, Find, ObjectConcept, AttributeConcept) on a real specification
// lattice. These back the strategy loops and Cable navigation; since the
// intent-index optimization they are hash/table lookups, not linear scans.
func BenchmarkLatticeOps(b *testing.B) {
	e := mustPrepare(b, "XtFree")
	l := e.Lattice
	n := l.Len()
	ctx := l.Context()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := i%n, (i*13+5)%n
		l.Meet(x, y)
		l.Join(x, y)
		l.ObjectConcept(i % ctx.NumObjects())
		l.AttributeConcept(i % ctx.NumAttributes())
	}
}

// BenchmarkTable3 measures each labeling strategy per specification — the
// rows of Table 3 (the benchmark time is the simulation cost; the reported
// metric in the table is operation counts).
func BenchmarkTable3(b *testing.B) {
	for _, name := range benchSpecs {
		e := mustPrepare(b, name)
		b.Run(name+"/TopDown", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := strategy.TopDown(e.Lattice, e.Truth); !ok {
					b.Fatal("strategy failed")
				}
			}
		})
		b.Run(name+"/BottomUp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := strategy.BottomUp(e.Lattice, e.Truth); !ok {
					b.Fatal("strategy failed")
				}
			}
		})
		b.Run(name+"/Expert", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := strategy.Expert(e.Lattice, e.Truth); !ok {
					b.Fatal("strategy failed")
				}
			}
		})
		// RandomMean is the Table 3 column: 1024 trials, each seeded
		// afresh.
		b.Run(name+"/RandomMean", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := strategy.RandomMean(e.Lattice, e.Truth, 1, 1024); !ok {
					b.Fatal("strategy failed")
				}
			}
		})
		b.Run(name+"/Optimal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				strategy.Optimal(e.Lattice, e.Truth, 0)
			}
		})
	}
}

// BenchmarkFigure1to6_StdioPipeline measures the full Section 2.1 pipeline
// behind Figures 1-6: verify, learn a reference, build the lattice, label,
// and fix.
func BenchmarkFigure1to6_StdioPipeline(b *testing.B) {
	stdio := specs.Stdio()
	gen := xtrace.Generator{Model: stdio.Model, Seed: 42}
	scenarios, truth := gen.ScenarioSet(150)
	buggy := specs.FigureOneFA()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session, _, err := core.DebugViolations(buggy, scenarios)
		if err != nil || session == nil {
			b.Fatal(err)
		}
		for j := 0; j < session.NumTraces(); j++ {
			if truth[session.Representatives()[j].Key()] {
				session.LabelTrace(j, cable.Good)
			} else {
				session.LabelTrace(j, cable.Bad)
			}
		}
		if _, err := core.FixSpec(buggy, session); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_Mining measures the Strauss pipeline of Figure 7:
// front-end extraction plus back-end learning over whole-program runs.
func BenchmarkFigure7_Mining(b *testing.B) {
	stdio := specs.Stdio()
	gen := xtrace.Generator{Model: stdio.Model, Seed: 7}
	runs, _ := gen.Runs(50, 3)
	miner := mine.Miner{FrontEnd: mine.FrontEnd{Seeds: stdio.Model.SeedOps(), FollowDerived: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := miner.Mine("stdio-mined", runs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9and10_Animals measures the introductory FCA example.
func BenchmarkFigure9and10_Animals(b *testing.B) {
	ctx := exp.AnimalsContext()
	for i := 0; i < b.N; i++ {
		l := concept.Build(ctx)
		if l.Len() == 0 {
			b.Fatal("empty lattice")
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblation_LatticeBuilders compares the incremental (Godin-style)
// construction against the naive closure-enumeration oracle.
func BenchmarkAblation_LatticeBuilders(b *testing.B) {
	e := mustPrepare(b, "XtFree")
	ctx, err := concept.TraceContext(e.Set.Representatives(), e.Ref)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			concept.Build(ctx)
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			concept.BuildNaive(ctx)
		}
	})
}

// BenchmarkAblation_ReferenceFA compares lattice construction under the
// three reference choices of Step 1a: the mined FA, the unordered
// template, and the PTA.
func BenchmarkAblation_ReferenceFA(b *testing.B) {
	e := mustPrepare(b, "XFreeGC")
	reps := e.Set.Representatives()
	all := make([]trace.Trace, 0, e.Set.Total())
	for _, c := range e.Set.Classes() {
		for j := 0; j < c.Count; j++ {
			all = append(all, c.Rep)
		}
	}
	unordered := fa.Unordered(e.Set.Alphabet())
	pta, err := learn.PTA("pta", all)
	if err != nil {
		b.Fatal(err)
	}
	ktails, err := learn.KTails{K: 2}.Learn("ktails", all)
	if err != nil {
		b.Fatal(err)
	}
	for _, ref := range []struct {
		name string
		fa   *fa.FA
	}{{"Mined", e.Ref}, {"Unordered", unordered}, {"PTA", pta.FA}, {"KTails", ktails.FA}} {
		b.Run(ref.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := concept.BuildFromTraces(reps, ref.fa); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Dedup compares building the lattice from class
// representatives (what Section 5.2 does) against building from every
// duplicate trace.
func BenchmarkAblation_Dedup(b *testing.B) {
	e := mustPrepare(b, "XFreeGC")
	reps := e.Set.Representatives()
	var raw []trace.Trace
	for _, c := range e.Set.Classes() {
		for j := 0; j < c.Count; j++ {
			raw = append(raw, c.Rep)
		}
	}
	b.Run("Representatives", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := concept.BuildFromTraces(reps, e.Ref); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AllDuplicates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := concept.BuildFromTraces(raw, e.Ref); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Learner measures sk-strings learning as the training
// multiset grows, and the AND/OR agreement variants.
func BenchmarkAblation_Learner(b *testing.B) {
	stdio := specs.Stdio()
	for _, n := range []int{50, 200, 800} {
		gen := xtrace.Generator{Model: stdio.Model, Seed: 9}
		set, _ := gen.ScenarioSet(n)
		var all []trace.Trace
		for _, c := range set.Classes() {
			for j := 0; j < c.Count; j++ {
				all = append(all, c.Rep)
			}
		}
		b.Run(sizeName(n)+"/AND", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := learn.DefaultLearner.Learn("x", all); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName(n)+"/OR", func(b *testing.B) {
			l := learn.Learner{K: 2, S: 0.5, Agreement: learn.Or}
			for i := 0; i < b.N; i++ {
				if _, err := l.Learn("x", all); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Executed measures the context-relation computation
// (Section 3.2's R) per trace.
func BenchmarkAblation_Executed(b *testing.B) {
	e := mustPrepare(b, "XtFree")
	reps := e.Set.Representatives()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := reps[i%len(reps)]
		if _, ok := e.Ref.Executed(t); !ok {
			b.Fatal("reference rejects scenario")
		}
	}
}

func sizeName(n int) string {
	switch n {
	case 50:
		return "n50"
	case 200:
		return "n200"
	default:
		return "n800"
	}
}

// BenchmarkStaticVerify measures product-based static checking of the full
// stdio program model against the correct specification (the Section 2.1
// verifier's job).
func BenchmarkStaticVerify(b *testing.B) {
	stdio := specs.Stdio()
	program, err := specs.ProgramFA("stdio", stdio.Model)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verify.Static(program, stdio.FA, 8, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgCompile measures parsing plus CFG-to-FA compilation of a
// program model.
func BenchmarkProgCompile(b *testing.B) {
	src := `
prog editor {
  X := fopen();
  loop { fread(X); }
  opt  { fwrite(X); }
  choice { fclose(X); } or { skip; }
  Y := popen();
  fread(Y);
  choice { pclose(Y); } or { fclose(Y); }
}`
	for i := 0; i < b.N; i++ {
		p, err := prog.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegexCompile measures the event-regex compiler on the stdio
// specification pattern.
func BenchmarkRegexCompile(b *testing.B) {
	const pattern = "X = fopen() (fread(X)|fwrite(X))* fclose(X) | X = popen() (fread(X)|fwrite(X))* pclose(X)"
	for i := 0; i < b.N; i++ {
		if _, err := fa.Compile("stdio", pattern); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkspaceRoundTrip measures saving and reloading a full session.
func BenchmarkWorkspaceRoundTrip(b *testing.B) {
	e := mustPrepare(b, "XFreeGC")
	session, err := cable.NewSession(e.Set, e.Ref)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf strings.Builder
		if err := workspace.Save(&buf, session); err != nil {
			b.Fatal(err)
		}
		if _, err := workspace.Load(strings.NewReader(buf.String())); err != nil {
			b.Fatal(err)
		}
	}
}

// must unwraps a (value, error) pair, panicking on error; these tests only
// use IDs the checked accessors accept.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
