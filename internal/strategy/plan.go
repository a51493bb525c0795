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

// Cost returns the plan's cost under the Section 4.2 model: one inspection
// per op plus one labeling per op that labels.
func (p Plan) Cost() Cost {
	c := Cost{Inspections: len(p.Ops)}
	for _, op := range p.Ops {
		if op.Label != cable.Unlabeled {
			c.Labelings++
		}
	}
	return c
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

// Apply replays the plan on a session using the public Cable commands,
// labeling each op's concept's unlabeled traces. It returns an error if an
// op labels a concept with no unlabeled traces (a malformed plan).
func (p Plan) Apply(s *cable.Session) error {
	for i, op := range p.Ops {
		if op.Label == cable.Unlabeled {
			continue // pure inspection
		}
		n, err := s.LabelTraces(op.Concept, cable.SelectUnlabeled(), op.Label)
		if err != nil {
			return fmt.Errorf("strategy: plan op %d: %w", i, err)
		}
		if n == 0 {
			return fmt.Errorf("strategy: plan op %d labels concept %d with no unlabeled traces", i, op.Concept)
		}
	}
	return nil
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

// ExpertPlan is Expert returning the full operation sequence (excluding
// the final verification inspection, which targets the top concept).
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
