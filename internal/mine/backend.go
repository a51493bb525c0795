package mine

import (
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/trace"
)

// BackEnd learns a specification FA from a multiset of scenario traces.
type BackEnd struct {
	// Learner is the sk-strings configuration; the zero value uses
	// learn.DefaultLearner.
	Learner learn.Learner
	// CoreThreshold, when positive, drops learned transitions exercised by
	// fewer than this many training events — the "coring" error-removal
	// heuristic of the earlier mining work. Cable-based debugging normally
	// leaves this at 0 and removes errors by relabeling instead.
	CoreThreshold int
}

// Infer learns a specification from the scenario multiset (duplicates
// matter: the learner and coring are frequency-driven).
func (be BackEnd) Infer(name string, scenarios *trace.Set) (*fa.FA, error) {
	l := be.Learner
	if l.K == 0 && l.S == 0 {
		l = learn.DefaultLearner
	}
	var all []trace.Trace
	for _, c := range scenarios.Classes() {
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			all = append(all, t)
		}
	}
	res, err := l.Learn(name, all)
	if err != nil {
		return nil, err
	}
	if be.CoreThreshold > 0 {
		return learn.Core(res, be.CoreThreshold), nil
	}
	return res.FA, nil
}

// Miner is the full Strauss pipeline of Figure 7. Its back end is
// BackEnd{}: DefaultLearner, no coring.
type Miner struct {
	FrontEnd FrontEnd
}

// Mine extracts scenarios from the runs and infers a specification.
// It returns both, since debugging operates on the scenarios.
func (m Miner) Mine(name string, runs []Run) (*fa.FA, *trace.Set, error) {
	scenarios := m.FrontEnd.ExtractAll(runs)
	spec, err := BackEnd{}.Infer(name, scenarios)
	if err != nil {
		return nil, nil, err
	}
	return spec, scenarios, nil
}

// Relearn reruns only the back end on a filtered scenario set — Step 3 of
// debugging a mined specification: after labeling, "the expert just runs
// the back end of the miner on the traces that have been labeled good".
func (m Miner) Relearn(name string, good *trace.Set) (*fa.FA, error) {
	return BackEnd{}.Infer(name, good)
}
