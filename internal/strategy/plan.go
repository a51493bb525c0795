package strategy

import (
	"fmt"
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

// planRun wraps run, recording each visit as a plan op.
type planRun struct {
	*run
	plan Plan
}

func (r *planRun) visit(id int) bool {
	label, ok := r.run.visit(id)
	r.plan.Ops = append(r.plan.Ops, Op{Concept: id, Label: label})
	return ok
}

// ExpertPlan is Expert returning its full operation sequence, which ends
// with the Step 2b verification inspection of the top concept.
func ExpertPlan(l *concept.Lattice, ref []cable.Label) (Plan, Cost, bool) {
	r0, err := newRun(l, ref)
	if err != nil {
		return Plan{}, Cost{}, false
	}
	r := &planRun{run: r0}
	for !r.done() {
		best, bestCover := -1, 0
		for _, c := range l.Concepts() {
			un := r.unlabeledIn(c.ID)
			if un.Empty() {
				continue
			}
			if _, ok := r.uniformLabel(un); !ok {
				continue
			}
			if cover := un.Len(); cover > bestCover {
				best, bestCover = c.ID, cover
			}
		}
		if best < 0 {
			return r.plan, r.cost, false
		}
		r.visit(best)
	}
	r.cost.Inspections++
	r.plan.Ops = append(r.plan.Ops, Op{Concept: l.Top()}) // Step 2b check
	return r.plan, r.cost, true
}
