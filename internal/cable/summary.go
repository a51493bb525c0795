package cable

import (
	"fmt"
	"strings"

	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/trace"
)

// This file implements Cable's summary views (Section 4.1): Show FA, Show
// transitions, and Show traces, each over a selectable subset of a
// concept's traces.

// ShowFA infers an FA from the selected traces of the concept with
// learn.DefaultLearner — "the most frequently used summary because the FA is
// often short and clear". With SelectLabel on the top concept after all
// labeling is done, it summarizes an entire label class. ErrBadConcept
// reports an out-of-range concept ID.
func (s *Session) ShowFA(id int, sel Selector) (*fa.FA, error) {
	objs, err := s.Select(id, sel)
	if err != nil {
		return nil, err
	}
	traces := make([]trace.Trace, 0, len(objs))
	for _, o := range objs {
		// Learn from the multiset so frequencies steer the learner the way
		// they steered the miner.
		c := s.setClass(o)
		for j := 0; j < c.Count; j++ {
			traces = append(traces, c.Rep)
		}
	}
	res, err := learn.DefaultLearner.Learn(fmt.Sprintf("concept-%d", id), traces)
	if err != nil {
		return nil, err
	}
	return res.FA, nil
}

func (s *Session) setClass(o int) trace.Class { return s.set.Class(o) }

// ShowTransitions returns the reference-FA transitions executed by every
// selected trace of the concept — for SelectAll this is exactly the
// concept's intent; for narrower selections it is σ of the selection, which
// can only grow. "The user often knows that the label for a trace depends
// on whether the trace executes a certain set of transitions."
// ErrBadConcept reports an out-of-range concept ID.
func (s *Session) ShowTransitions(id int, sel Selector) ([]fa.Transition, error) {
	if !s.ValidConcept(id) {
		return nil, s.badConcept(id)
	}
	return s.sharedTransitions(id, sel), nil
}

// sharedTransitions is ShowTransitions over a validated concept ID.
func (s *Session) sharedTransitions(id int, sel Selector) []fa.Transition {
	ext := s.extentOf(id, sel)
	if ext.Empty() {
		return nil
	}
	shared := s.lattice.Context().Sigma(ext)
	out := make([]fa.Transition, 0, shared.Len())
	shared.Range(func(a int) bool {
		out = append(out, s.ref.Transition(a))
		return true
	})
	return out
}

// ShowTraces returns the selected traces themselves — "not used very often
// because it usually generates more output than the user can understand".
// ErrBadConcept reports an out-of-range concept ID.
func (s *Session) ShowTraces(id int, sel Selector) ([]trace.Trace, error) {
	objs, err := s.Select(id, sel)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Trace, len(objs))
	for i, o := range objs {
		out[i] = s.traces[o]
	}
	return out, nil
}

// DescribeConcept renders a one-screen summary of a concept: state, sizes,
// intent transitions, and label census. The REPL's "info" command.
// ErrBadConcept reports an out-of-range concept ID.
func (s *Session) DescribeConcept(id int) (string, error) {
	if !s.ValidConcept(id) {
		return "", s.badConcept(id)
	}
	var b strings.Builder
	c := s.lattice.Concept(id)
	fmt.Fprintf(&b, "concept c%d: %s\n", id, s.state(id))
	fmt.Fprintf(&b, "  %d trace class(es), %d total trace(s), similarity %d\n",
		c.Extent.Len(), s.totalCount(id), c.Intent.Len())
	census := map[Label]int{}
	c.Extent.Range(func(o int) bool {
		census[s.labels[o]]++
		return true
	})
	if n := census[Unlabeled]; n > 0 {
		fmt.Fprintf(&b, "  unlabeled: %d\n", n)
	}
	for _, l := range s.UsedLabels() {
		if n := census[l]; n > 0 {
			fmt.Fprintf(&b, "  %q: %d\n", string(l), n)
		}
	}
	fmt.Fprintf(&b, "  shared transitions:\n")
	for _, t := range s.sharedTransitions(id, SelectAll()) {
		fmt.Fprintf(&b, "    %s\n", t)
	}
	fmt.Fprintf(&b, "  parents: %v  children: %v\n", s.lattice.Parents(id), s.lattice.Children(id))
	return b.String(), nil
}

// totalCount sums the multiplicities of a validated concept's classes.
func (s *Session) totalCount(id int) int {
	total := 0
	s.lattice.Concept(id).Extent.Range(func(o int) bool {
		total += s.set.Class(o).Count
		return true
	})
	return total
}
