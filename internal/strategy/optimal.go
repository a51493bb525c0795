package strategy

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/cable"
	"repro/internal/concept"
)

// Optimal computes the minimum-cost labeling plan by breadth-first search
// over labeling states. States are sets of already-labeled traces; an
// action inspects a concept whose unlabeled remainder is uniform and labels
// that remainder, costing one inspection plus one labeling. Since every
// productive action costs exactly two operations and unproductive
// inspections never help, the optimum is twice the minimum number of
// labeling steps.
//
// The search is exponential in the worst case; maxStates bounds the
// explored state count (0 means DefaultOptimalBudget). When the budget is
// exceeded — as the paper reports for its four largest specifications,
// where "the program we wrote to evaluate these strategies took too long to
// run" — Optimal returns ok = false.
func Optimal(l *concept.Lattice, ref []cable.Label, maxStates int) (Cost, bool) {
	_, cost, ok := OptimalPlan(l, ref, maxStates)
	return cost, ok
}

// OptimalPlan is Optimal returning a witness: one minimum-length sequence
// of (inspect, label) operations achieving the reference labeling.
func OptimalPlan(l *concept.Lattice, ref []cable.Label, maxStates int) (Plan, Cost, bool) {
	r, err := newRun(l, ref)
	if err != nil {
		return Plan{}, Cost{}, false
	}
	if maxStates <= 0 {
		maxStates = DefaultOptimalBudget
	}
	n := len(ref)
	if n == 0 {
		return Plan{}, Cost{}, true
	}
	// states is the BFS queue, in visiting order, and also the search
	// tree: each state keeps its parent and the op reaching it, so only the
	// goal's plan is ever built. Successors are assembled in scratch sets
	// and cloned only when new.
	type state struct {
		labeled *bitset.Set
		parent  int
		op      Op
	}
	states := []state{{labeled: bitset.New(n), parent: -1}}
	visited := map[string]bool{states[0].labeled.Key(): true}
	succ := bitset.New(n)
	var keyBuf []byte // reused AppendKey scratch; visited lookups stay alloc-free
	for cur := 0; cur < len(states); cur++ {
		labeled := states[cur].labeled
		for _, c := range l.Concepts() {
			label, ok := r.uniformLabel(bitset.DifferenceInto(r.un, c.Extent, labeled))
			if !ok {
				continue
			}
			op := Op{Concept: c.ID, Label: label}
			succ.CopyFrom(labeled).UnionWith(c.Extent)
			if succ.Len() == n {
				var plan Plan
				for s := cur; s > 0; s = states[s].parent {
					plan.Ops = append(plan.Ops, states[s].op)
				}
				slices.Reverse(plan.Ops)
				plan.Ops = append(plan.Ops, op)
				k := len(plan.Ops)
				return plan, Cost{Inspections: k, Labelings: k}, true
			}
			keyBuf = succ.AppendKey(keyBuf[:0])
			if visited[string(keyBuf)] {
				continue
			}
			visited[string(keyBuf)] = true
			if len(visited) > maxStates {
				return Plan{}, Cost{}, false
			}
			states = append(states, state{labeled: succ.Clone(), parent: cur, op: op})
		}
	}
	// No plan reaches the full labeling: the lattice is not well-formed.
	return Plan{}, Cost{}, false
}

// DefaultOptimalBudget is the default bound on explored labeling states.
const DefaultOptimalBudget = 200000
