package learn_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exp"
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/mine"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// learnInput is one training multiset, named for failure messages.
type learnInput struct {
	name   string
	traces []trace.Trace
}

// flatten lists a set's traces class by class, each class's duplicates
// consecutively with their own IDs, as exp.Prepare and mine.BackEnd.Infer
// pass them to the learner.
func flatten(set *trace.Set) []trace.Trace {
	var all []trace.Trace
	for _, c := range set.Classes() {
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			all = append(all, t)
		}
	}
	return all
}

// corpusInputs builds, for every shipped spec at its default scale under
// each seed, the three multisets the paper pipeline learns from: the
// exp.Prepare input, and the mined and relearn-good scenarios.
func corpusInputs(t testing.TB, seeds []int64) []learnInput {
	t.Helper()
	var out []learnInput
	for _, sp := range specs.All() {
		for _, seed := range seeds {
			out = append(out, prepareInput(t, sp, seed))
			out = append(out, minedInputs(sp, seed)...)
		}
	}
	return out
}

// prepareInput returns the multiset exp.Prepare learns the spec's
// reference FA from: the generated workload after its trace-format round
// trip.
func prepareInput(t testing.TB, sp specs.Spec, seed int64) learnInput {
	t.Helper()
	set, _ := xtrace.Generator{Model: sp.Model, Seed: seed}.ScenarioSet(exp.DefaultScale(sp.Name))
	var buf bytes.Buffer
	if err := trace.Write(&buf, set); err != nil {
		t.Fatal(err)
	}
	reread, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return learnInput{fmt.Sprintf("%s/seed%d/prepare", sp.Name, seed), flatten(reread)}
}

// minedInputs returns the scenarios mine.Miner extracts from the spec's
// generated runs, as exp.EndToEnd mines them, and the good ones among
// them, which core.RelearnGood hands back to the miner's back end.
func minedInputs(sp specs.Spec, seed int64) []learnInput {
	runs, truth := xtrace.Generator{Model: sp.Model, Seed: seed}.Runs(exp.DefaultScale(sp.Name)/2, 2)
	fe := mine.FrontEnd{Seeds: sp.Model.SeedOps(), FollowDerived: true}
	scenarios := fe.ExtractAll(runs)
	good := &trace.Set{}
	for _, c := range scenarios.Classes() {
		if !truth[c.Rep.Key()] {
			continue
		}
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			good.Add(t)
		}
	}
	return []learnInput{
		{fmt.Sprintf("%s/seed%d/mined", sp.Name, seed), flatten(scenarios)},
		{fmt.Sprintf("%s/seed%d/good", sp.Name, seed), flatten(good)},
	}
}

// learnConfigs are the sk-strings configurations the differential tests
// compare: the paper pipeline's two, the edge values of K and S, and OR
// agreement.
var learnConfigs = []learn.Learner{
	learn.DefaultLearner,
	{K: 3, S: 0.95, Agreement: learn.And},
	{K: 1, S: 0.9, Agreement: learn.And},
	{K: 3, S: 0.3, Agreement: learn.Or},
	{K: 4, S: 0.95, Agreement: learn.And},
}

// sameResult reports how got differs from the oracle's want: fa.Write
// bytes, TransCount or AcceptCount, or "" if they are identical.
func sameResult(got, want *learn.Result, gotErr, wantErr error) string {
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Sprintf("error %v, oracle error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	var g, w bytes.Buffer
	if err := fa.Write(&g, got.FA); err != nil {
		return err.Error()
	}
	if err := fa.Write(&w, want.FA); err != nil {
		return err.Error()
	}
	if g.String() != w.String() {
		return fmt.Sprintf("FA\n%s\noracle FA\n%s", g.String(), w.String())
	}
	if !slices.Equal(got.TransCount, want.TransCount) {
		return fmt.Sprintf("TransCount %v, oracle %v", got.TransCount, want.TransCount)
	}
	if !maps.Equal(got.AcceptCount, want.AcceptCount) {
		return fmt.Sprintf("AcceptCount %v, oracle %v", got.AcceptCount, want.AcceptCount)
	}
	return ""
}

// checkLearners compares every learner configuration, k-tails with
// K 1–3 and the raw PTA with their oracles on one input.
func checkLearners(t *testing.T, in learnInput) {
	t.Helper()
	for _, l := range learnConfigs {
		got, gotErr := l.Learn("x", in.traces)
		want, wantErr := oracleLearn(l, "x", in.traces)
		if d := sameResult(got, want, gotErr, wantErr); d != "" {
			t.Fatalf("%s: Learner%+v differs from the oracle: %s", in.name, l, d)
		}
	}
	for k := 1; k <= 3; k++ {
		l := learn.KTails{K: k}
		got, gotErr := l.Learn("x", in.traces)
		want, wantErr := oracleKTails(l, "x", in.traces)
		if d := sameResult(got, want, gotErr, wantErr); d != "" {
			t.Fatalf("%s: KTails{K: %d} differs from the oracle: %s", in.name, k, d)
		}
	}
	got, gotErr := learn.PTA("x", in.traces)
	want, wantErr := oraclePTAResult("x", in.traces)
	if d := sameResult(got, want, gotErr, wantErr); d != "" {
		t.Fatalf("%s: PTA differs from the oracle: %s", in.name, d)
	}
}

// TestLearnMatchesOracleCorpus pins the learners to their oracles on the
// inputs the paper pipeline learns from, under the default seed and two
// others. The learners are serial, so under the race detector, which
// slows the oracles tenfold, the default seed alone runs.
func TestLearnMatchesOracleCorpus(t *testing.T) {
	seeds := []int64{exp.DefaultConfig().Seed, 5, 6101}
	if testing.Short() || raceEnabled {
		seeds = seeds[:1]
	}
	for _, in := range corpusInputs(t, seeds) {
		checkLearners(t, in)
	}
}

// TestLearnMatchesOracleRandom pins the learners to their oracles on
// small random multisets over four labels, whose states tie on
// probability often, with duplicates both adjacent and apart.
func TestLearnMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ops := []string{"a()", "b()", "X = c(Y)", "d(X, Y)"}
	for iter := 0; iter < 300; iter++ {
		var traces []trace.Trace
		for n := 1 + rng.Intn(14); len(traces) < n; {
			if len(traces) > 0 && rng.Intn(4) == 0 {
				// Repeat an earlier trace, adjacent or not.
				traces = append(traces, traces[rng.Intn(len(traces))])
				continue
			}
			var evs []string
			for j := rng.Intn(7); j > 0; j-- {
				evs = append(evs, ops[rng.Intn(len(ops))])
			}
			traces = append(traces, trace.ParseEvents("", evs...))
		}
		checkLearners(t, learnInput{fmt.Sprintf("random %d", iter), traces})
	}
}
