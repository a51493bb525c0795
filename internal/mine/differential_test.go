package mine_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/exp"
	"repro/internal/mine"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// paperSeed is the evaluation's default workload seed (exp.DefaultConfig).
const paperSeed = 20030407

// sameSets reports where two extracted sets differ: class by class, the
// key, the member IDs and the representative with its events.
func sameSets(got, want *trace.Set) error {
	if got.NumClasses() != want.NumClasses() || got.Total() != want.Total() {
		return fmt.Errorf("%d classes of %d scenarios, want %d of %d", got.NumClasses(), got.Total(), want.NumClasses(), want.Total())
	}
	for i := range want.NumClasses() {
		if got.ClassKey(i) != want.ClassKey(i) || !reflect.DeepEqual(got.Class(i), want.Class(i)) {
			return fmt.Errorf("class %d: %q %v, want %q %v", i, got.ClassKey(i), got.Class(i).IDs, want.ClassKey(i), want.Class(i).IDs)
		}
	}
	return nil
}

// frontEnds are the configurations the differential tests run: the
// paper's, and one following only the seed's object.
func frontEnds(seeds []string) map[string]mine.FrontEnd {
	return map[string]mine.FrontEnd{
		"derived":   {Seeds: seeds, FollowDerived: true},
		"seed-only": {Seeds: seeds},
	}
}

// TestExtractAllMatchesOracle pins the one-pass front end to the
// rescanning one on every corpus workload as exp.EndToEnd draws it.
func TestExtractAllMatchesOracle(t *testing.T) {
	all := append(specs.All(), specs.Stdio())
	for _, sp := range all {
		for _, seed := range []int64{paperSeed, paperSeed + 1, 1, 99} {
			runs, _ := xtrace.Generator{Model: sp.Model, Seed: seed}.Runs(exp.DefaultScale(sp.Name)/2, 2)
			for name, fe := range frontEnds(sp.Model.SeedOps()) {
				if err := sameSets(fe.ExtractAll(runs), oracleExtractAll(fe, runs)); err != nil {
					t.Fatalf("%s seed %d %s: %v", sp.Name, seed, name, err)
				}
			}
		}
	}
}

// TestExtractLongRunMatchesOracle slices one run interleaving 500
// scenarios.
func TestExtractLongRunMatchesOracle(t *testing.T) {
	sp := specs.Stdio()
	runs, _ := xtrace.Generator{Model: sp.Model, Seed: paperSeed}.Runs(1, 500)
	for name, fe := range frontEnds(sp.Model.SeedOps()) {
		set := fe.ExtractAll(runs)
		if set.Total() != 500 {
			t.Fatalf("%s: %d scenarios, want 500", name, set.Total())
		}
		if err := sameSets(set, oracleExtractAll(fe, runs)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestExtractNamesPastSeven follows a chain of ten derived objects: the
// names run X through T, then N7, N8 and N9.
func TestExtractNamesPastSeven(t *testing.T) {
	run := mine.Run{ID: "chain", Events: []event.Concrete{{Op: "root", Def: 1}}}
	for o := event.ObjID(2); o <= 10; o++ {
		run.Events = append(run.Events, event.Concrete{Op: "derive", Def: o, Uses: []event.ObjID{o - 1}})
	}
	run.Events = append(run.Events, event.Concrete{Op: "merge", Uses: []event.ObjID{10, 8, 1, 42}})
	fe := mine.FrontEnd{Seeds: []string{"root"}, FollowDerived: true}
	set := fe.ExtractAll([]mine.Run{run})
	want := "X = root(); Y = derive(X); Z = derive(Y); W = derive(Z); V = derive(W); U = derive(V); " +
		"T = derive(U); N7 = derive(T); N8 = derive(N7); N9 = derive(N8); merge(N9, N7, X, _)"
	if set.NumClasses() != 1 || set.ClassKey(0) != want {
		t.Fatalf("got %q, want %q", set.ClassKey(0), want)
	}
	if err := sameSets(set, oracleExtractAll(fe, []mine.Run{run})); err != nil {
		t.Fatal(err)
	}
}

// decodeRuns reads a fuzz input as a front-end configuration and runs.
// The first byte sets FollowDerived (bit 0) and which of the first five
// operations are seeds (bits 3-7). Every later event takes a head byte, a
// result byte and one byte per argument: the head's low three bits pick
// the operation, its next two the argument count, and a head of 0xff
// starts a new run. Objects range over 0 (none) to 15, so they are
// redefined, shared between scenarios and, with FollowDerived, can
// outnumber the seven canonical names.
func decodeRuns(data []byte) (mine.FrontEnd, []mine.Run) {
	ops := []string{"open", "make", "use", "close", "derive", "noise", "copy", "link"}
	var fe mine.FrontEnd
	if len(data) == 0 {
		return fe, nil
	}
	fe.FollowDerived = data[0]&1 != 0
	for i := range 5 {
		if data[0]>>(3+i)&1 != 0 {
			fe.Seeds = append(fe.Seeds, ops[i])
		}
	}
	runs := []mine.Run{{ID: "r0"}}
	data = data[1:]
	for len(data) >= 2 {
		head := data[0]
		if head == 0xff {
			runs = append(runs, mine.Run{ID: fmt.Sprintf("r%d", len(runs))})
			data = data[1:]
			continue
		}
		e := event.Concrete{Op: ops[head&7], Def: event.ObjID(data[1] & 15)}
		data = data[2:]
		for n := int(head>>3) & 3; n > 0 && len(data) > 0; n-- {
			e.Uses = append(e.Uses, event.ObjID(data[0]&15))
			data = data[1:]
		}
		last := &runs[len(runs)-1]
		last.Events = append(last.Events, e)
	}
	return fe, runs
}

// FuzzExtractMatchesOracle pins ExtractAll to the rescanning front end on
// arbitrary runs and configurations.
func FuzzExtractMatchesOracle(f *testing.F) {
	f.Add([]byte{0x09, 0, 1, 2, 0, 0x0b, 0, 1, 3, 0, 1})
	// A chain of derived objects under FollowDerived: more than seven names.
	chain := []byte{0x29, 4, 1}
	for o := byte(2); o <= 12; o++ {
		chain = append(chain, 0x0c, o, o-1)
	}
	f.Add(append(chain, 0x1a, 0, 12, 3))
	// Redefined seeds, zero objects and a second run.
	f.Add([]byte{0x09, 0, 3, 0x08, 0, 3, 0, 3, 0x1a, 0, 3, 0, 0xff, 0, 5, 0x0b, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		fe, runs := decodeRuns(data)
		if err := sameSets(fe.ExtractAll(runs), oracleExtractAll(fe, runs)); err != nil {
			t.Fatalf("%+v over %v: %v", fe, runs, err)
		}
	})
}

// xtFreeRuns are the runs exp.EndToEnd mines for XtFree, the paper's
// largest workload, under the default seed.
func xtFreeRuns() (mine.FrontEnd, []mine.Run) {
	sp, _ := specs.ByName("XtFree")
	runs, _ := xtrace.Generator{Model: sp.Model, Seed: paperSeed}.Runs(exp.DefaultScale(sp.Name)/2, 2)
	return mine.FrontEnd{Seeds: sp.Model.SeedOps(), FollowDerived: true}, runs
}

// TestExtractAllAllocs pins the front end's allocations on XtFree's runs
// (16,021 when each scenario rescanned its run through three maps).
func TestExtractAllAllocs(t *testing.T) {
	fe, runs := xtFreeRuns()
	if got := testing.AllocsPerRun(3, func() { fe.ExtractAll(runs) }); got >= 8000 {
		t.Errorf("ExtractAll: %.0f allocations, want under 8,000", got)
	}
}

// BenchmarkExtract slices XtFree's runs, and one Stdio run interleaving
// 8,000 scenarios (quadratic in the run's length when each scenario
// rescanned the rest of it).
func BenchmarkExtract(b *testing.B) {
	b.Run("XtFree", func(b *testing.B) {
		fe, runs := xtFreeRuns()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			fe.ExtractAll(runs)
		}
	})
	b.Run("StdioLongRun", func(b *testing.B) {
		sp := specs.Stdio()
		runs, _ := xtrace.Generator{Model: sp.Model, Seed: paperSeed}.Runs(1, 8000)
		fe := mine.FrontEnd{Seeds: sp.Model.SeedOps(), FollowDerived: true}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			fe.ExtractAll(runs)
		}
	})
}
