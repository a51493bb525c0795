package xtrace_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// paperSeed is the evaluation's default workload seed (exp.DefaultConfig).
const paperSeed = 20030407

// corpusModels returns every corpus model and the stdio example's.
func corpusModels() map[string]xtrace.Model {
	out := map[string]xtrace.Model{"Stdio": specs.Stdio().Model}
	for _, s := range specs.All() {
		out[s.Name] = s.Model
	}
	return out
}

// sameSets reports how two generated sets differ: class by class, the
// key, the count, the member IDs and the representative's events.
func sameSets(got, want *trace.Set) error {
	if got.NumClasses() != want.NumClasses() || got.Total() != want.Total() {
		return fmt.Errorf("%d classes of %d traces, want %d of %d", got.NumClasses(), got.Total(), want.NumClasses(), want.Total())
	}
	for i := range want.NumClasses() {
		g, w := got.Class(i), want.Class(i)
		if got.ClassKey(i) != want.ClassKey(i) || g.Count != w.Count || !slices.Equal(g.IDs, w.IDs) ||
			g.Rep.ID != w.Rep.ID || g.Rep.Key() != w.Rep.Key() {
			return fmt.Errorf("class %d: %q x%d %v, want %q x%d %v", i, got.ClassKey(i), g.Count, g.IDs, want.ClassKey(i), w.Count, w.IDs)
		}
	}
	return nil
}

// checkGenerator compares every generator method with its oracle on one
// model and seed.
func checkGenerator(t *testing.T, name string, g xtrace.Generator, n, runs, perRun int) {
	t.Helper()
	set, labels := g.ScenarioSet(n)
	wantSet, wantLabels := oracleScenarioSet(g, n)
	if err := sameSets(set, wantSet); err != nil {
		t.Fatalf("%s seed %d: ScenarioSet(%d): %v", name, g.Seed, n, err)
	}
	if !maps.Equal(labels, wantLabels) {
		t.Fatalf("%s seed %d: ScenarioSet(%d) labels differ", name, g.Seed, n)
	}

	rs, labels := g.Runs(runs, perRun)
	wantRuns, wantLabels := oracleRuns(g, runs, perRun)
	if !reflect.DeepEqual(rs, wantRuns) {
		t.Fatalf("%s seed %d: Runs(%d, %d) differ from the oracle's", name, g.Seed, runs, perRun)
	}
	if !maps.Equal(labels, wantLabels) {
		t.Fatalf("%s seed %d: Runs(%d, %d) labels differ", name, g.Seed, runs, perRun)
	}

	scripts, labels := g.Streams(runs, perRun)
	wantScripts, wantLabels := oracleStreams(g, runs, perRun)
	if !reflect.DeepEqual(scripts, wantScripts) {
		t.Fatalf("%s seed %d: Streams(%d, %d) differ from the oracle's", name, g.Seed, runs, perRun)
	}
	if !maps.Equal(labels, wantLabels) {
		t.Fatalf("%s seed %d: Streams(%d, %d) labels differ", name, g.Seed, runs, perRun)
	}
}

// TestGeneratorMatchesOracle pins ScenarioSet, Runs and Streams to the
// parse-per-draw generator on every corpus model: the same draws give the
// same IDs, events, class keys, labels and run IDs.
func TestGeneratorMatchesOracle(t *testing.T) {
	for name, m := range corpusModels() {
		for _, seed := range []int64{paperSeed, paperSeed + 1, 1, 99, 7} {
			checkGenerator(t, name, xtrace.Generator{Model: m, Seed: seed}, 900, 60, 3)
		}
	}
}

// randomModel draws a model exercising what the corpus does not: several
// names per template, nullary and multi-argument events, steps that may
// vanish, wide repetition ranges, and noise or none.
func randomModel(rng *rand.Rand) xtrace.Model {
	ops := []string{"a", "b", "c", "d"}
	names := []string{"X", "Y", "Z", "_"}
	sym := func() string {
		op := ops[rng.Intn(len(ops))]
		args := make([]string, rng.Intn(3))
		for i := range args {
			args[i] = names[rng.Intn(len(names))]
		}
		s := op + "(" + strings.Join(args, ", ") + ")"
		if rng.Intn(2) == 0 {
			s = names[rng.Intn(len(names)-1)] + " = " + s
		}
		return s
	}
	var m xtrace.Model
	for i := range 1 + rng.Intn(4) {
		sc := xtrace.Scenario{Name: fmt.Sprintf("s%d", i), Good: i == 0 || rng.Intn(2) == 0, Weight: 1 + rng.Intn(5)}
		for range 1 + rng.Intn(5) {
			lo := rng.Intn(2)
			sc.Events = append(sc.Events, xtrace.Rep(sym(), lo, lo+rng.Intn(4)))
		}
		m.Scenarios = append(m.Scenarios, sc)
	}
	for range rng.Intn(3) {
		m.Noise = append(m.Noise, ops[rng.Intn(len(ops))]+"()")
	}
	return m
}

// TestGeneratorMatchesOracleRandomModels repeats the differential check
// on random models.
func TestGeneratorMatchesOracleRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range 1500 {
		m := randomModel(rng)
		checkGenerator(t, fmt.Sprintf("model %d", i), xtrace.Generator{Model: m, Seed: rng.Int63()}, 1+rng.Intn(40), rng.Intn(6), rng.Intn(5))
	}
}

// TestGeneratorAllocs pins the allocations of the paper's largest
// workload, XtFree under the default seed (16,870 and 32,491 when each
// drawn event was parsed again and each run numbered its objects through
// maps).
func TestGeneratorAllocs(t *testing.T) {
	xt, _ := specs.ByName("XtFree")
	g := xtrace.Generator{Model: xt.Model, Seed: paperSeed}
	if got := testing.AllocsPerRun(3, func() { g.ScenarioSet(900) }); got >= 4000 {
		t.Errorf("ScenarioSet(900): %.0f allocations, want under 4,000", got)
	}
	if got := testing.AllocsPerRun(3, func() { g.Runs(450, 2) }); got >= 4000 {
		t.Errorf("Runs(450, 2): %.0f allocations, want under 4,000", got)
	}
}

// BenchmarkGenerate draws the paper's largest workload, XtFree under the
// default seed, as exp.Prepare (ScenarioSet) and exp.EndToEnd (Runs) do.
func BenchmarkGenerate(b *testing.B) {
	xt, _ := specs.ByName("XtFree")
	g := xtrace.Generator{Model: xt.Model, Seed: paperSeed}
	b.Run("ScenarioSet", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			g.ScenarioSet(900)
		}
	})
	b.Run("Runs", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			g.Runs(450, 2)
		}
	})
}
