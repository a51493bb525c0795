package cable

import (
	"errors"
	"fmt"

	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/trace"
	"repro/internal/wellformed"
)

// This file automates Section 4.1's Focus-template selection. When a
// concept is mixed — the user has labeled some of its traces good and some
// bad, but further labeling through this lattice cannot separate the rest —
// the escape hatch is a Focus session with a different reference FA. The
// paper's experiments drew those FAs from three templates (unordered, name
// projection, seed order); SuggestFocus tries each against the labels
// assigned so far and returns the first that separates them.

// Suggestion is a Focus recommendation.
type Suggestion struct {
	// Template names the winning template: "unordered", "project <name>",
	// or "seed <event>".
	Template string
	// Ref is the reference FA to focus with.
	Ref *fa.FA
}

// SuggestFocus examines the concept's traces and the labels they already
// carry, and proposes a Focus template whose induced sub-lattice separates
// the differently-labeled traces; see Suggest. It returns an error if the
// concept's labeled traces do not disagree (no split needed) or if no
// template separates them.
func (s *Session) SuggestFocus(id int) (Suggestion, error) {
	objs, err := s.Select(id, SelectAll())
	if err != nil {
		return Suggestion{}, err
	}
	traces := make([]trace.Trace, len(objs))
	labels := make([]Label, len(objs))
	for i, o := range objs {
		traces[i], labels[i] = s.traces[o], s.labels[o]
	}
	sug, err := Suggest(traces, labels)
	if err != nil {
		return Suggestion{}, fmt.Errorf("cable: concept %d: %w", id, err)
	}
	return sug, nil
}

// Suggest proposes a Focus template for traces carrying labels (one per
// trace, Unlabeled allowed) whose induced lattice separates the
// differently-labeled traces (is well-formed for the partial labeling,
// extended to unlabeled traces by ignoring them). It tries the paper's
// templates in order of induced lattice size: unordered, then a name
// projection per mentioned name, then a seed order per alphabet event,
// building a lattice per candidate until one separates the labels. It
// returns an error if the labeled traces do not disagree or if no
// template separates them.
func Suggest(traces []trace.Trace, labels []Label) (Suggestion, error) {
	distinct := map[Label]bool{}
	for _, l := range labels {
		if l != Unlabeled {
			distinct[l] = true
		}
	}
	if len(distinct) < 2 {
		return Suggestion{}, errors.New("not mixed under the current labels")
	}
	alphabet := trace.NewSet(traces...).Alphabet()

	var candidates []Suggestion
	candidates = append(candidates, Suggestion{Template: "unordered", Ref: fa.Unordered(alphabet)})
	for _, name := range namesOf(traces) {
		candidates = append(candidates, Suggestion{
			Template: "project " + name,
			Ref:      fa.NameProjection(alphabet, name),
		})
	}
	for _, e := range alphabet {
		candidates = append(candidates, Suggestion{
			Template: "seed " + e.String(),
			Ref:      fa.SeedOrder(alphabet, e),
		})
	}
	for _, cand := range candidates {
		if separates(cand.Ref, traces, labels) {
			return cand, nil
		}
	}
	return Suggestion{}, errors.New("no template separates the labels; label by hand or supply a custom FA")
}

// separates reports whether the candidate reference FA accepts every
// trace and its lattice over the labeled traces is well-formed for their
// labels (Section 4.3, wellformed.Check), so labeling through it can tell
// the labels apart. Unlabeled traces only need to be accepted.
func separates(ref *fa.FA, traces []trace.Trace, labels []Label) bool {
	var labeled []trace.Trace
	var labeledLabels []Label
	for i, t := range traces {
		if labels[i] != Unlabeled {
			labeled = append(labeled, t)
			labeledLabels = append(labeledLabels, labels[i])
		}
	}
	// The template must accept every trace (seed-order templates reject
	// traces lacking the seed). Compile the candidate once; the same plan
	// is then reused by the lattice build below.
	sim := ref.Sim()
	for _, t := range traces {
		if !sim.Accepts(t) {
			return false
		}
	}
	lattice, err := concept.BuildFromTraces(labeled, ref)
	if err != nil {
		return false
	}
	ok, _ := wellformed.Check(lattice, labeledLabels)
	return ok
}

func namesOf(traces []trace.Trace) []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range traces {
		for _, n := range t.Names() {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}
