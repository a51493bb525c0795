package exp

import (
	"fmt"
	"strings"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/specs"
	"repro/internal/strategy"
	"repro/internal/wellformed"
	"repro/internal/xtrace"
)

// RefRow reports one reference-FA choice in the Step 1a ablation: Section
// 2.1 notes that "by varying parameters of the FA-learning algorithm, the
// author can choose to use a large FA that makes very fine distinctions
// among traces or a smaller FA that makes coarser distinctions". Coarser
// references give smaller lattices but risk mixing differently-labeled
// traces (well-formedness fails); finer ones always separate but approach
// Baseline cost.
type RefRow struct {
	Reference  string
	FAStates   int
	FATrans    int
	Concepts   int
	WellFormed bool
	// Expert and TopDown costs; -1 when the lattice is not well-formed
	// (no strategy can finish).
	Expert  int
	TopDown int
}

// ReferenceAblation measures lattice size and labeling cost for each
// reference choice on one specification's workload: the unordered
// template, the mined (sk-strings) FA, a finer sk-strings configuration,
// k-tails, and the PTA.
func ReferenceAblation(specName string, cfg Config) ([]RefRow, error) {
	spec, ok := specs.ByName(specName)
	if !ok {
		return nil, fmt.Errorf("exp: unknown spec %q", specName)
	}
	gen := xtrace.Generator{Model: spec.Model, Seed: cfg.Seed}
	set, truthByKey := gen.ScenarioSet(cfg.scale(spec.Name))
	var truth []cable.Label
	for _, c := range set.Classes() {
		truth = append(truth, truthLabel(truthByKey[c.Rep.Key()]))
	}
	all := allTraces(set)

	type cand struct {
		name  string
		build func() (*fa.FA, error)
	}
	candidates := []cand{
		{"unordered", func() (*fa.FA, error) { return fa.Unordered(set.Alphabet()), nil }},
		{"mined(sk)", func() (*fa.FA, error) {
			r, err := learn.DefaultLearner.Learn("mined", all)
			if err != nil {
				return nil, err
			}
			return r.FA, nil
		}},
		{"finer(sk)", func() (*fa.FA, error) {
			r, err := learn.Learner{K: 3, S: 0.95, Agreement: learn.And}.Learn("finer", all)
			if err != nil {
				return nil, err
			}
			return r.FA, nil
		}},
		{"ktails", func() (*fa.FA, error) {
			r, err := learn.KTails{K: 2}.Learn("ktails", all)
			if err != nil {
				return nil, err
			}
			return r.FA, nil
		}},
		{"pta", func() (*fa.FA, error) {
			r, err := learn.PTA("pta", all)
			if err != nil {
				return nil, err
			}
			return r.FA, nil
		}},
	}

	var rows []RefRow
	for _, c := range candidates {
		ref, err := c.build()
		if err != nil {
			return nil, err
		}
		lattice, err := concept.BuildFromTracesCtx(cfg.ctx(), set.Representatives(), ref)
		if err != nil {
			return nil, err
		}
		row := RefRow{
			Reference: c.name,
			FAStates:  ref.NumStates(),
			FATrans:   ref.NumTransitions(),
			Concepts:  lattice.Len(),
			Expert:    -1,
			TopDown:   -1,
		}
		if ok, _ := wellformed.Check(lattice, truth); ok {
			row.WellFormed = true
			if cost, ok := strategy.Expert(lattice, truth); ok {
				row.Expert = cost.Total()
			}
			if cost, ok := strategy.TopDown(lattice, truth); ok {
				row.TopDown = cost.Total()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatRefAblation renders the ablation table.
func FormatRefAblation(specName string, rows []RefRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reference-FA ablation (%s): coarse vs fine similarity (Section 2.1)\n", specName)
	fmt.Fprintf(&b, "%-11s %8s %7s %9s %11s %7s %8s\n",
		"reference", "states", "trans", "concepts", "well-formed", "expert", "topdown")
	for _, r := range rows {
		ex, td := "—", "—"
		if r.Expert >= 0 {
			ex = fmt.Sprintf("%d", r.Expert)
		}
		if r.TopDown >= 0 {
			td = fmt.Sprintf("%d", r.TopDown)
		}
		fmt.Fprintf(&b, "%-11s %8d %7d %9d %11v %7s %8s\n",
			r.Reference, r.FAStates, r.FATrans, r.Concepts, r.WellFormed, ex, td)
	}
	return b.String()
}

// truthLabel converts ground truth to a label.
func truthLabel(good bool) cable.Label {
	if good {
		return cable.Good
	}
	return cable.Bad
}
