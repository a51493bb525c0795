package exp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/specs"
)

// quickCfg keeps test runtime low; determinism comes from the fixed seed.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.RandomTrials = 16
	return cfg
}

func TestPrepareAllSpecs(t *testing.T) {
	cfg := quickCfg()
	for _, s := range specs.All() {
		e, err := Prepare(s, cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if e.Lattice.Len() == 0 || e.Set.NumClasses() == 0 {
			t.Errorf("%s: empty experiment", s.Name)
		}
		if len(e.Truth) != e.Set.NumClasses() {
			t.Errorf("%s: truth labels mismatch", s.Name)
		}
		// The reference FA must accept every scenario class.
		for _, c := range e.Set.Classes() {
			if !e.Ref.Accepts(c.Rep) {
				t.Errorf("%s: reference rejects %q", s.Name, c.Rep.Key())
			}
		}
	}
}

func TestPrepareDeterministic(t *testing.T) {
	spec, _ := specs.ByName("XFreeGC")
	cfg := quickCfg()
	a, err := Prepare(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Set.NumClasses() != b.Set.NumClasses() || a.Lattice.Len() != b.Lattice.Len() || a.RefKind != b.RefKind {
		t.Error("Prepare not deterministic for fixed seed")
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 17 {
		t.Fatalf("Table 1 has %d rows", len(rows))
	}
	text := FormatTable1(rows)
	for _, want := range []string{"XtFree", "RegionsBig", "states", "transitions"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	for _, r := range rows {
		if r.States < 2 || r.Transitions < 1 {
			t.Errorf("%s: implausible FA size %d/%d", r.Name, r.States, r.Transitions)
		}
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 17 {
		t.Fatalf("Table 2 has %d rows", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Unique > r.Scenarios || r.Unique == 0 || r.Concepts == 0 {
			t.Errorf("%v implausible", r)
		}
		if r.BuildTime <= 0 {
			t.Errorf("%s: no build time measured", r.Name)
		}
		// The paper's affordability claim: lattice construction never took
		// longer than ~22 seconds; ours must stay far under that.
		if r.BuildTime > 22*time.Second {
			t.Errorf("%s: lattice construction took %v", r.Name, r.BuildTime)
		}
	}
	// Workload-scale contrast: XtFree dominates the small specs.
	if byName["XtFree"].Unique <= byName["XGetSelOwner"].Unique {
		t.Error("XtFree not the larger workload")
	}
	text := FormatTable2(rows)
	if !strings.Contains(text, "build time") || !strings.Contains(text, "XtFree") {
		t.Errorf("Table 2 formatting:\n%s", text)
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	cfg := quickCfg()
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 17 {
		t.Fatalf("Table 3 has %d rows", len(rows))
	}
	for _, r := range rows {
		// Optimal (when measured) lower-bounds everything.
		if r.Optimal >= 0 {
			for what, v := range map[string]int{"expert": r.Expert, "topdown": r.TopDown, "bottomup": r.BottomUp} {
				if v < r.Optimal {
					t.Errorf("%s: %s %d beats optimal %d", r.Name, what, v, r.Optimal)
				}
			}
			if r.RandomMean < float64(r.Optimal) {
				t.Errorf("%s: random mean %.1f beats optimal %d", r.Name, r.RandomMean, r.Optimal)
			}
		}
		// Expert never does much worse than Baseline (paper's observation);
		// allow a small slack for the verification op.
		if r.Expert > r.Baseline+2 {
			t.Errorf("%s: expert %d much worse than baseline %d", r.Name, r.Expert, r.Baseline)
		}
	}
	h := ComputeHeadline(rows)
	// The abstract's claim: less than one third as many decisions on
	// average (aggregate across the corpus).
	if h.AggregateRatio >= 0.45 {
		t.Errorf("aggregate Expert/Baseline ratio %.2f far above paper's <1/3", h.AggregateRatio)
	}
	// The best case must show a dramatic saving on the largest spec.
	if h.BestCase != "XtFree" {
		t.Errorf("best case = %s, expected XtFree", h.BestCase)
	}
	if h.BestCaseExpert*4 > h.BestCaseBaseline {
		t.Errorf("best case saving too small: %d vs %d", h.BestCaseExpert, h.BestCaseBaseline)
	}
	text := FormatTable3(rows) + FormatHeadline(h, len(rows))
	for _, want := range []string{"expert", "baseline", "optimal", "Best case"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 3 formatting missing %q", want)
		}
	}
}

func TestFigures(t *testing.T) {
	figs, err := Figures(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "wf"} {
		if figs[key] == "" {
			t.Errorf("figure %q missing", key)
		}
	}
	if !strings.Contains(figs["1"], "fclose(X)") {
		t.Error("figure 1 lacks the buggy fclose transition")
	}
	if !strings.Contains(figs["2"], "violation") && !strings.Contains(figs["2"], "violates") {
		t.Errorf("figure 2 lacks violations:\n%s", figs["2"])
	}
	if !strings.Contains(figs["6"], "pclose(X)") {
		t.Error("figure 6 (fixed spec) lacks pclose")
	}
	if !strings.Contains(figs["7"], "front end") {
		t.Error("figure 7 lacks architecture")
	}
	if !strings.Contains(figs["9"], "gibbon") || !strings.Contains(figs["10"], "digraph") {
		t.Error("animal figures wrong")
	}
	if !strings.Contains(figs["wf"], "well-formed: false") {
		t.Errorf("wf figure does not demonstrate non-well-formedness:\n%s", figs["wf"])
	}
}
