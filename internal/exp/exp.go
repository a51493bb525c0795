// Package exp is the evaluation harness: it prepares per-specification
// experiments (workload → scenarios → reference FA → concept lattice →
// ground-truth labeling) and regenerates every table and figure of the
// paper's evaluation (Section 5). cmd/paper is its command-line driver, and
// the repository's benchmarks wrap its stages.
package exp

import (
	"fmt"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/wellformed"
	"repro/internal/xtrace"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Seed drives workload generation; rows are deterministic per seed.
	Seed int64
	// RandomTrials is the number of Random-strategy trials to average (the
	// paper uses 1024).
	RandomTrials int
	// OptimalBudget bounds the Optimal-strategy search (0 = default). The
	// paper could not measure Optimal for its four largest specifications;
	// the budget reproduces that failure mode honestly.
	OptimalBudget int
	// Scale overrides the number of scenario draws per specification; nil
	// uses DefaultScale.
	Scale func(specName string) int
	// Workers is ignored: the sweeps and lattice builds are serial.
	//
	// Deprecated: leave it unset.
	Workers int
}

// DefaultConfig mirrors the paper's parameters.
func DefaultConfig() Config {
	return Config{Seed: 20030407, RandomTrials: 1024}
}

// DefaultScale sizes each specification's workload so that the
// unique-scenario counts span the paper's range: a handful for the small
// specifications up to low hundreds for XtFree.
func DefaultScale(specName string) int {
	switch specName {
	case "XtFree":
		return 900
	case "RegionsBig":
		return 300
	case "XFreeGC", "XPutImage", "XSetFont", "RegionsAlloc":
		return 160
	case "XGetSelOwner", "PrsTransTbl", "RmvTimeOut":
		return 40
	default:
		return 90
	}
}

func (c Config) scale(name string) int {
	if c.Scale != nil {
		return c.Scale(name)
	}
	return DefaultScale(name)
}

// RefKind records which reference FA a specification's experiment ended up
// using (Step 1a of the method).
type RefKind string

const (
	// RefMined: the sk-strings FA mined from the scenarios themselves, the
	// default of Section 2.2.
	RefMined RefKind = "mined"
	// RefFiner: a less-merged learner, chosen because the mined FA's
	// lattice was not well-formed for the ground truth — the "choose a
	// different FA" escape hatch of Sections 2.2 and 4.3.
	RefFiner RefKind = "finer"
	// RefPTA: the prefix-tree acceptor; maximally fine, always well-formed
	// (each trace class has a distinct transition set).
	RefPTA RefKind = "pta"
)

// Experiment is one prepared specification experiment.
type Experiment struct {
	Spec    specs.Spec
	Set     *trace.Set
	Truth   []cable.Label // ground-truth label per trace class
	Ref     *fa.FA
	RefKind RefKind
	Lattice *concept.Lattice
}

// Prepare generates the workload, selects a reference FA whose lattice is
// well-formed for the ground truth (mined → finer → PTA), and builds the
// lattice.
func Prepare(spec specs.Spec, cfg Config) (*Experiment, error) {
	sp := obs.StartSpan("exp.prepare")
	defer sp.End()
	gen := xtrace.Generator{Model: spec.Model, Seed: cfg.Seed}
	set, truthByKey := gen.ScenarioSet(cfg.scale(spec.Name))
	truth := make([]cable.Label, set.NumClasses())
	for i := range truth {
		if truthByKey[set.ClassKey(i)] {
			truth[i] = cable.Good
		} else {
			truth[i] = cable.Bad
		}
	}
	all := allTraces(set)
	candidates := []struct {
		kind  RefKind
		build func() (*learn.Result, error)
	}{
		{RefMined, func() (*learn.Result, error) { return learn.DefaultLearner.Learn(spec.Name+"-mined", all) }},
		{RefFiner, func() (*learn.Result, error) {
			return learn.Learner{K: 3, S: 0.95, Agreement: learn.And}.Learn(spec.Name+"-finer", all)
		}},
		{RefPTA, func() (*learn.Result, error) { return learn.PTA(spec.Name+"-pta", all) }},
	}
	var (
		chosen     *fa.FA
		chosenKind RefKind
		lattice    *concept.Lattice
	)
	for _, cand := range candidates {
		res, err := cand.build()
		if err != nil {
			return nil, err
		}
		l, err := concept.BuildFromTraces(set.Representatives(), res.FA)
		if err != nil {
			return nil, err
		}
		if ok, _ := wellformed.Check(l, truth); ok {
			chosen, chosenKind, lattice = res.FA, cand.kind, l
			break
		}
	}
	if chosen == nil {
		return nil, fmt.Errorf("exp: %s: no candidate reference FA yields a well-formed lattice", spec.Name)
	}
	return &Experiment{
		Spec:    spec,
		Set:     set,
		Truth:   truth,
		Ref:     chosen,
		RefKind: chosenKind,
		Lattice: lattice,
	}, nil
}

func allTraces(set *trace.Set) []trace.Trace {
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

// Strategies holds a specification's Table 3 row measurements. Costs are
// total operations; -1 marks "could not be measured" (Optimal over budget),
// rendered as "—".
type Strategies struct {
	Expert     int
	Baseline   int
	TopDown    int
	BottomUp   int
	RandomMean float64
	Optimal    int
}

// RunStrategies measures every labeling method on the experiment.
func (e *Experiment) RunStrategies(cfg Config) (Strategies, error) {
	var out Strategies
	exCost, ok := strategy.Expert(e.Lattice, e.Truth)
	if !ok {
		return out, fmt.Errorf("exp: %s: Expert failed on well-formed lattice", e.Spec.Name)
	}
	out.Expert = exCost.Total()
	out.Baseline = strategy.Baseline(e.Lattice).Total()
	tdCost, ok := strategy.TopDown(e.Lattice, e.Truth)
	if !ok {
		return out, fmt.Errorf("exp: %s: TopDown failed", e.Spec.Name)
	}
	out.TopDown = tdCost.Total()
	buCost, ok := strategy.BottomUp(e.Lattice, e.Truth)
	if !ok {
		return out, fmt.Errorf("exp: %s: BottomUp failed", e.Spec.Name)
	}
	out.BottomUp = buCost.Total()
	trials := cfg.RandomTrials
	if trials <= 0 {
		trials = 1024
	}
	mean, ok := strategy.RandomMean(e.Lattice, e.Truth, cfg.Seed, trials)
	if !ok {
		return out, fmt.Errorf("exp: %s: Random failed", e.Spec.Name)
	}
	out.RandomMean = mean
	if optCost, ok := strategy.Optimal(e.Lattice, e.Truth, cfg.OptimalBudget); ok {
		out.Optimal = optCost.Total()
	} else {
		out.Optimal = -1
	}
	return out, nil
}
