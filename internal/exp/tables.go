package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/concept"
	"repro/internal/specs"
)

// Table1Row is one line of Table 1: the debugged specifications.
type Table1Row struct {
	Name        string
	States      int
	Transitions int
	Description string
}

// Table1 lists the seventeen debugged specifications with the sizes of
// their (correct) automata.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, s := range specs.All() {
		rows = append(rows, Table1Row{
			Name:        s.Name,
			States:      s.FA.NumStates(),
			Transitions: s.FA.NumTransitions(),
			Description: s.Description,
		})
	}
	return rows
}

// FormatTable1 renders Table 1 as aligned text.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: the debugged specifications\n")
	fmt.Fprintf(&b, "%-14s %7s %11s  %s\n", "spec", "states", "transitions", "description")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %7d %11d  %s\n", r.Name, r.States, r.Transitions, r.Description)
	}
	return b.String()
}

// Table2Row is one line of Table 2: the cost of concept analysis.
type Table2Row struct {
	Name      string
	Scenarios int           // scenario traces extracted (with duplicates)
	Unique    int           // classes of identical traces (lattice objects)
	Attrs     int           // reference-FA transitions (attributes)
	RefKind   RefKind       // which reference FA the experiment settled on
	Concepts  int           // lattice size
	BuildTime time.Duration // best-of-three lattice construction time
}

// Table2 prepares every specification, in corpus order, and measures
// lattice construction the way the paper does: the best of three builds
// from the class representatives on the chosen reference FA, excluding
// trace parsing and output. It stops at the first error.
func Table2(cfg Config) ([]Table2Row, error) {
	var rows []Table2Row
	for _, spec := range specs.All() {
		e, err := Prepare(spec, cfg)
		if err != nil {
			return nil, err
		}
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := concept.BuildFromTraces(e.Set.Representatives(), e.Ref); err != nil {
				return nil, err
			}
			if d := time.Since(start); i == 0 || d < best {
				best = d
			}
		}
		rows = append(rows, Table2Row{
			Name:      spec.Name,
			Scenarios: e.Set.Total(),
			Unique:    e.Set.NumClasses(),
			Attrs:     e.Ref.NumTransitions(),
			RefKind:   e.RefKind,
			Concepts:  e.Lattice.Len(),
			BuildTime: best,
		})
	}
	return rows, nil
}

// FormatTable2 renders Table 2 as aligned text.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: cost of concept analysis\n")
	fmt.Fprintf(&b, "%-14s %9s %7s %6s %6s %9s %12s\n",
		"spec", "scenarios", "unique", "attrs", "ref", "concepts", "build time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9d %7d %6d %6s %9d %12s\n",
			r.Name, r.Scenarios, r.Unique, r.Attrs, r.RefKind, r.Concepts, r.BuildTime.Round(time.Microsecond))
	}
	return b.String()
}

// Table3Row is one line of Table 3: the cost of labeling by each method.
type Table3Row struct {
	Name string
	Strategies
}

// Table3 prepares every specification, in corpus order, and measures
// every labeling method. It stops at the first error.
func Table3(cfg Config) ([]Table3Row, error) {
	var rows []Table3Row
	for _, spec := range specs.All() {
		e, err := Prepare(spec, cfg)
		if err != nil {
			return nil, err
		}
		st, err := e.RunStrategies(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{Name: spec.Name, Strategies: st})
	}
	return rows, nil
}

// FormatTable3 renders Table 3 as aligned text; unmeasurable Optimal
// entries print as "—" like the paper's four largest specifications.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: cost of labeling (total Cable operations)\n")
	fmt.Fprintf(&b, "%-14s %7s %9s %8s %9s %8s %8s\n",
		"spec", "expert", "baseline", "topdown", "bottomup", "random", "optimal")
	for _, r := range rows {
		opt := "—"
		if r.Optimal >= 0 {
			opt = fmt.Sprintf("%d", r.Optimal)
		}
		fmt.Fprintf(&b, "%-14s %7d %9d %8d %9d %8.1f %8s\n",
			r.Name, r.Expert, r.Baseline, r.TopDown, r.BottomUp, r.RandomMean, opt)
	}
	return b.String()
}

// Headline computes the summary claims the paper states in its abstract and
// Section 5.3, from a Table 3 result set.
type HeadlineStats struct {
	// AggregateRatio is total Expert decisions over total Baseline
	// decisions across all specs; the paper's abstract reports "on
	// average, less than one third as many user decisions".
	AggregateRatio float64
	// ExpertToBaselineRatio is the unweighted mean of per-spec
	// Expert/Baseline ratios (dominated by the small specs, where Cable
	// has little advantage — Section 5.3's observation).
	ExpertToBaselineRatio float64
	// BestCase is the spec with the largest absolute saving, with its
	// Expert and Baseline costs (the paper's "28 decisions vs 224").
	BestCase         string
	BestCaseExpert   int
	BestCaseBaseline int
	// SpecsWhereTopDownBeatsBaseline counts rows with TopDown < Baseline.
	SpecsWhereTopDownBeatsBaseline int
	// SpecsWhereExpertBeatsBaseline counts rows with Expert < Baseline.
	SpecsWhereExpertBeatsBaseline int
}

// ComputeHeadline derives the headline statistics from Table 3 rows.
func ComputeHeadline(rows []Table3Row) HeadlineStats {
	var h HeadlineStats
	sum := 0.0
	totalExpert, totalBaseline := 0, 0
	bestSaving := -1
	for _, r := range rows {
		sum += float64(r.Expert) / float64(r.Baseline)
		totalExpert += r.Expert
		totalBaseline += r.Baseline
		if saving := r.Baseline - r.Expert; saving > bestSaving {
			bestSaving = saving
			h.BestCase = r.Name
			h.BestCaseExpert = r.Expert
			h.BestCaseBaseline = r.Baseline
		}
		if r.TopDown < r.Baseline {
			h.SpecsWhereTopDownBeatsBaseline++
		}
		if r.Expert < r.Baseline {
			h.SpecsWhereExpertBeatsBaseline++
		}
	}
	h.ExpertToBaselineRatio = sum / float64(len(rows))
	h.AggregateRatio = float64(totalExpert) / float64(totalBaseline)
	return h
}

// FormatHeadline renders the headline summary.
func FormatHeadline(h HeadlineStats, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline: aggregate Expert/Baseline decisions = %.2f (paper: < 1/3)\n", h.AggregateRatio)
	fmt.Fprintf(&b, "Per-spec mean ratio = %.2f (small specs dominate; Cable has little advantage below ~10 unique traces)\n",
		h.ExpertToBaselineRatio)
	fmt.Fprintf(&b, "Best case: %s, %d decisions with Cable vs %d without (paper: 28 vs 224)\n",
		h.BestCase, h.BestCaseExpert, h.BestCaseBaseline)
	fmt.Fprintf(&b, "Expert beats Baseline on %d/%d specs; Top-down on %d/%d\n",
		h.SpecsWhereExpertBeatsBaseline, n, h.SpecsWhereTopDownBeatsBaseline, n)
	return b.String()
}
