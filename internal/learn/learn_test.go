package learn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fa"

	"repro/internal/trace"
)

func tr(events ...string) trace.Trace { return trace.ParseEvents("", events...) }

// figure8 returns the good scenario traces of Figure 8: fopen/fclose and
// popen/pclose protocols with varying numbers of reads and writes.
func figure8() []trace.Trace {
	return []trace.Trace{
		tr("X = fopen()", "fclose(X)"),
		tr("X = fopen()", "fread(X)", "fclose(X)"),
		tr("X = fopen()", "fread(X)", "fread(X)", "fclose(X)"),
		tr("X = fopen()", "fwrite(X)", "fclose(X)"),
		tr("X = fopen()", "fread(X)", "fwrite(X)", "fclose(X)"),
		tr("X = popen()", "pclose(X)"),
		tr("X = popen()", "fread(X)", "pclose(X)"),
		tr("X = popen()", "fwrite(X)", "fread(X)", "pclose(X)"),
		tr("X = popen()", "fwrite(X)", "pclose(X)"),
	}
}

func TestPTAExactness(t *testing.T) {
	traces := figure8()
	res, err := PTA("pta", traces)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range traces {
		if !res.FA.Accepts(tc) {
			t.Errorf("PTA rejects training trace %q", tc.Key())
		}
	}
	// PTA must not accept an unseen combination.
	if res.FA.Accepts(tr("X = popen()", "fclose(X)")) {
		t.Error("PTA accepts unseen trace")
	}
	if res.FA.Accepts(tr("X = fopen()")) {
		t.Error("PTA accepts unseen prefix")
	}
	if !res.FA.IsDeterministic() {
		t.Error("PTA not deterministic")
	}
}

func TestPTACounts(t *testing.T) {
	traces := []trace.Trace{
		tr("a()", "b()"),
		tr("a()", "b()"),
		tr("a()", "c()"),
	}
	res, err := PTA("counts", traces)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]int{}
	for i, tran := range res.FA.Transitions() {
		byLabel[tran.Label.String()] = res.TransCount[i]
	}
	if byLabel["a()"] != 3 || byLabel["b()"] != 2 || byLabel["c()"] != 1 {
		t.Errorf("counts = %v", byLabel)
	}
	total := 0
	for _, n := range res.AcceptCount {
		total += n
	}
	if total != 3 {
		t.Errorf("accept counts sum = %d", total)
	}
}

func TestLearnAcceptsTrainingSet(t *testing.T) {
	for _, cfg := range []Learner{
		DefaultLearner,
		{K: 1, S: 0.9, Agreement: And},
		{K: 3, S: 0.3, Agreement: Or},
	} {
		res, err := cfg.Learn("spec", figure8())
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range figure8() {
			if !res.FA.Accepts(tc) {
				t.Errorf("cfg %+v: learned FA rejects training trace %q", cfg, tc.Key())
			}
		}
	}
}

func TestLearnGeneralizes(t *testing.T) {
	// Merging loops the repeated reads: an unseen number of freads should be
	// accepted by the learned FA but not by the PTA.
	traces := []trace.Trace{
		tr("X = fopen()", "fclose(X)"),
		tr("X = fopen()", "fread(X)", "fclose(X)"),
		tr("X = fopen()", "fread(X)", "fread(X)", "fclose(X)"),
		tr("X = fopen()", "fread(X)", "fread(X)", "fread(X)", "fclose(X)"),
	}
	res := DefaultLearner.MustLearn("gen", traces)
	unseen := tr("X = fopen()", "fread(X)", "fread(X)", "fread(X)", "fread(X)", "fread(X)", "fclose(X)")
	if !res.FA.Accepts(unseen) {
		t.Error("learned FA failed to generalize repeated reads")
	}
	pta, _ := PTA("pta", traces)
	if pta.FA.Accepts(unseen) {
		t.Error("PTA unexpectedly accepts unseen trace")
	}
	if res.FA.NumStates() >= pta.FA.NumStates() {
		t.Errorf("learner did not shrink the PTA: %d vs %d states", res.FA.NumStates(), pta.FA.NumStates())
	}
}

func TestLearnEmptyAndSingleton(t *testing.T) {
	res, err := DefaultLearner.Learn("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FA.Accepts(tr()) || res.FA.Accepts(tr("a()")) {
		t.Error("FA learned from nothing accepts something")
	}
	res, err = DefaultLearner.Learn("one", []trace.Trace{tr("a()", "b()")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FA.Accepts(tr("a()", "b()")) {
		t.Error("singleton training trace rejected")
	}
}

func TestLearnEmptyTrace(t *testing.T) {
	res := DefaultLearner.MustLearn("eps", []trace.Trace{tr(), tr("a()")})
	if !res.FA.Accepts(tr()) || !res.FA.Accepts(tr("a()")) {
		t.Error("empty trace not accepted after learning")
	}
}

func TestOrMergesAtLeastAsMuchAsAnd(t *testing.T) {
	traces := figure8()
	and := Learner{K: 2, S: 0.5, Agreement: And}.MustLearn("and", traces)
	or := Learner{K: 2, S: 0.5, Agreement: Or}.MustLearn("or", traces)
	if or.FA.NumStates() > and.FA.NumStates() {
		t.Errorf("OR (%d states) merged less than AND (%d states)",
			or.FA.NumStates(), and.FA.NumStates())
	}
}

func TestCore(t *testing.T) {
	// 10 good traces and 1 rare erroneous one: coring at threshold 2 removes
	// the error path.
	var traces []trace.Trace
	for i := 0; i < 10; i++ {
		traces = append(traces, tr("X = fopen()", "fclose(X)"))
	}
	traces = append(traces, tr("X = popen()", "fclose(X)"))
	res, err := PTA("cored", traces)
	if err != nil {
		t.Fatal(err)
	}
	cored := Core(res, 2)
	if !cored.Accepts(tr("X = fopen()", "fclose(X)")) {
		t.Error("coring removed the frequent good path")
	}
	if cored.Accepts(tr("X = popen()", "fclose(X)")) {
		t.Error("coring kept the rare erroneous path")
	}
}

func TestCoreFailsOnFrequentErrors(t *testing.T) {
	// The documented flaw: when errors are frequent, coring cannot separate
	// them from good behaviour at any threshold that keeps the good paths.
	var traces []trace.Trace
	for i := 0; i < 10; i++ {
		traces = append(traces, tr("X = fopen()", "fclose(X)"))
		traces = append(traces, tr("X = popen()", "fclose(X)")) // frequent bug
	}
	res, err := PTA("freq", traces)
	if err != nil {
		t.Fatal(err)
	}
	cored := Core(res, 5)
	if !cored.Accepts(tr("X = popen()", "fclose(X)")) {
		t.Error("expected frequent erroneous trace to survive coring")
	}
}

func TestLearnedFADeterministic(t *testing.T) {
	// Folding must leave the automaton deterministic.
	rng := rand.New(rand.NewSource(3))
	ops := []string{"a()", "b()", "c()"}
	for iter := 0; iter < 50; iter++ {
		var traces []trace.Trace
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			var evs []string
			ln := rng.Intn(6)
			for j := 0; j < ln; j++ {
				evs = append(evs, ops[rng.Intn(len(ops))])
			}
			traces = append(traces, tr(evs...))
		}
		res := DefaultLearner.MustLearn("rnd", traces)
		if !res.FA.IsDeterministic() {
			t.Fatalf("iter %d: learned FA nondeterministic:\n%s", iter, res.FA)
		}
		for _, tc := range traces {
			if !res.FA.Accepts(tc) {
				t.Fatalf("iter %d: training trace %q rejected", iter, tc.Key())
			}
		}
	}
}

func TestLearnedLanguageContainsPTA(t *testing.T) {
	// Generalization only: L(PTA) ⊆ L(learned).
	traces := figure8()
	res := DefaultLearner.MustLearn("gen", traces)
	ptaRes, _ := PTA("pta", traces)
	for _, tc := range ptaRes.FA.Enumerate(6, 200) {
		if !res.FA.Accepts(tc) {
			t.Errorf("learned FA rejects PTA sentence %q", tc.Key())
		}
	}
}

// TestLearnNaNSIsOutOfRange: S = NaN fails every comparison, so it used to
// pass the range check and keep every k-string in the top set, learning 8
// states from figure8 where S = 0.5 learns 7. It now takes the default,
// like any other S outside (0, 1].
func TestLearnNaNSIsOutOfRange(t *testing.T) {
	write := func(l Learner) string {
		var buf bytes.Buffer
		if err := fa.Write(&buf, l.MustLearn("spec", figure8()).FA); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if got, want := write(Learner{S: math.NaN()}), write(Learner{S: 0.5}); got != want {
		t.Errorf("S = NaN learned\n%s\nwant the S = 0.5 automaton\n%s", got, want)
	}
}
