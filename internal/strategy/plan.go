package strategy

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/cable"
	"repro/internal/concept"
)

// Op is one step of a labeling plan: inspect a concept and, optionally,
// label its unlabeled traces.
type Op struct {
	// Concept is the inspected concept's ID.
	Concept int
	// Label is the label applied to the concept's unlabeled traces, or
	// cable.Unlabeled when the visit only inspected.
	Label cable.Label
}

// Plan is a sequence of Cable operations produced by a strategy. Replaying
// a plan on a session reproduces the strategy's labeling through the same
// commands a human would issue.
type Plan struct {
	// Ops are the steps in order.
	Ops []Op
}

// String renders the plan compactly: "c3!good c5 c7!bad ...".
func (p Plan) String() string {
	parts := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		if op.Label == cable.Unlabeled {
			parts[i] = fmt.Sprintf("c%d", op.Concept)
		} else {
			parts[i] = fmt.Sprintf("c%d!%s", op.Concept, op.Label)
		}
	}
	return strings.Join(parts, " ")
}

// ExpertPlan is Expert returning its full operation sequence, which ends
// with the Step 2b verification inspection of the top concept.
func ExpertPlan(l *concept.Lattice, ref []cable.Label) (Plan, Cost, bool) {
	t, ok := newTable(l, ref)
	if !ok {
		return Plan{}, Cost{}, false
	}
	k := t.walk()
	var plan Plan
	for !k.done() {
		best, bestCover := -1, 0
		for ci := range l.Len() {
			if k.labelable(ci, k.row) < 0 {
				continue
			}
			// The cover counts objects: each block its weight.
			cover := 0
			for i, x := range k.extent(ci) {
				for x &^= k.row[i]; x != 0; x &= x - 1 {
					cover += int(k.weight[i*64+bits.TrailingZeros64(x)])
				}
			}
			if cover > bestCover {
				best, bestCover = ci, cover
			}
		}
		if best < 0 {
			return plan, k.cost, false
		}
		label, _ := k.visit(best)
		plan.Ops = append(plan.Ops, Op{Concept: best, Label: label})
	}
	k.cost.Inspections++
	plan.Ops = append(plan.Ops, Op{Concept: l.Top()}) // Step 2b check
	return plan, k.cost, true
}
