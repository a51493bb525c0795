// Package cable implements the specification-debugging sessions of Section
// 4: a concept lattice over traces, labeling of whole concepts at once,
// summary views, and Focus sub-sessions.
//
// A Session owns the representative traces (one per class of identical
// traces), the concept lattice induced by a reference FA, and a label per
// trace. Labels partition traces into erroneous ("bad") and correct
// ("good") sets; several distinct good labels may be used to fight
// overgeneralization (Section 2.2). Cable tracks which traces are labeled
// and exposes each concept's state — Unlabeled (green), PartlyLabeled
// (yellow), FullyLabeled (red) — so a user or strategy can see where work
// remains.
package cable

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Sentinel errors for lookups with untrusted IDs. Methods taking a concept
// ID or a trace-class index validate it and return an error wrapping one of
// these instead of panicking, so a service can map them to 404 responses
// with errors.Is.
var (
	// ErrBadConcept reports a concept ID outside the session's lattice.
	ErrBadConcept = errors.New("cable: no such concept")
	// ErrBadTrace reports a trace-class index outside the session's range.
	ErrBadTrace = errors.New("cable: no such trace class")
)

// Label classifies a trace. The empty label means "not yet labeled".
type Label string

// Conventional labels. Any non-empty string is allowed; Good* variants
// (e.g. "good fopen", "good popen") support split relearning.
const (
	Unlabeled Label = ""
	Good      Label = "good"
	Bad       Label = "bad"
	// Mixed marks traces of a concept that is not well-formed for the
	// desired labeling (Section 4.3); such traces are handled by hand or in
	// a Focus session with a different FA.
	Mixed Label = "mixed"
)

// State is a concept's labeling state.
type State int

const (
	// StateUnlabeled: no trace in the concept is labeled (shown green).
	StateUnlabeled State = iota
	// StatePartlyLabeled: some traces labeled, some not (shown yellow).
	StatePartlyLabeled
	// StateFullyLabeled: every trace labeled; empty concepts are always
	// fully labeled (shown red).
	StateFullyLabeled
)

// String returns the paper's name and display color for the state.
func (s State) String() string {
	switch s {
	case StateUnlabeled:
		return "Unlabeled(green)"
	case StatePartlyLabeled:
		return "PartlyLabeled(yellow)"
	default:
		return "FullyLabeled(red)"
	}
}

// Session is a Cable debugging session. Its configuration (the metrics
// registry) is fixed at construction via Options;
// only the labels mutate afterwards, so guarding a session with one mutex
// makes it safe for concurrent clients.
type Session struct {
	set     *trace.Set
	traces  []trace.Trace // representatives; object i of the context
	ref     *fa.FA
	lattice *concept.Lattice
	labels  []Label
	metrics *obs.Metrics
}

// NewSession builds a session: the context objects are the set's class
// representatives, the attributes the reference FA's transitions. The
// reference FA must accept every trace. Options configure the build
// (WithContext, WithLattice) and the session itself (WithObs); the zero
// option set reproduces the historical behavior exactly.
func NewSession(set *trace.Set, ref *fa.FA, opts ...Option) (*Session, error) {
	cfg := buildConfig(opts)
	sp := cfg.metrics.StartSpan("cable.session")
	defer sp.End()
	reps := set.Representatives()
	cfg.metrics.Gauge("cable.session.trace_classes").Set(int64(len(reps)))
	lattice := cfg.lattice
	if lattice != nil {
		if got := lattice.Context().NumObjects(); got != len(reps) {
			return nil, fmt.Errorf("cable: supplied lattice has %d objects for %d trace classes", got, len(reps))
		}
	} else {
		var err error
		lattice, err = concept.BuildFromTracesCtx(cfg.ctx, reps, ref)
		if err != nil {
			return nil, err
		}
	}
	cfg.metrics.Gauge("cable.session.concepts").Set(int64(lattice.Len()))
	return &Session{
		set:     set,
		traces:  reps,
		ref:     ref,
		lattice: lattice,
		labels:  make([]Label, len(reps)),
		metrics: cfg.metrics,
	}, nil
}

// options reconstructs the session's configuration, so Focus sub-sessions
// inherit it.
func (s *Session) options() []Option {
	return []Option{WithObs(s.metrics)}
}

// Lattice returns the session's concept lattice.
func (s *Session) Lattice() *concept.Lattice { return s.lattice }

// Set returns the underlying trace multiset (shared; do not mutate).
func (s *Session) Set() *trace.Set { return s.set }

// Ref returns the reference FA defining trace similarity.
func (s *Session) Ref() *fa.FA { return s.ref }

// NumTraces returns the number of trace classes (context objects).
func (s *Session) NumTraces() int { return len(s.traces) }

// ValidConcept reports whether id names a concept of the session's lattice.
func (s *Session) ValidConcept(id int) bool { return s.lattice.Valid(id) }

// ValidTrace reports whether i names a trace class of the session.
func (s *Session) ValidTrace(i int) bool { return i >= 0 && i < len(s.traces) }

// badConcept wraps ErrBadConcept with the offending ID and the valid range.
func (s *Session) badConcept(id int) error {
	return fmt.Errorf("%w: %d (0..%d)", ErrBadConcept, id, s.lattice.Len()-1)
}

// badTrace wraps ErrBadTrace with the offending index and the valid range.
func (s *Session) badTrace(i int) error {
	return fmt.Errorf("%w: %d (0..%d)", ErrBadTrace, i, len(s.traces)-1)
}

// Representatives returns the representative trace of every class, indexed
// by object. The slice is shared; do not mutate.
func (s *Session) Representatives() []trace.Trace { return s.traces }

// Multiplicity returns how many identical traces object i represents, or
// ErrBadTrace when i is out of range.
func (s *Session) Multiplicity(i int) (int, error) {
	if !s.ValidTrace(i) {
		return 0, s.badTrace(i)
	}
	return s.set.Class(i).Count, nil
}

// Labels returns a copy of the current labeling.
func (s *Session) Labels() []Label { return append([]Label(nil), s.labels...) }

// Done reports whether every trace is labeled.
func (s *Session) Done() bool {
	for _, l := range s.labels {
		if l == Unlabeled {
			return false
		}
	}
	return true
}

// ConceptState returns the labeling state of a concept, or ErrBadConcept
// when id is out of range.
func (s *Session) ConceptState(id int) (State, error) {
	if !s.ValidConcept(id) {
		return StateUnlabeled, s.badConcept(id)
	}
	return s.state(id), nil
}

// state computes the labeling state of a validated concept ID.
func (s *Session) state(id int) State {
	labeled, unlabeled := 0, 0
	s.lattice.Concept(id).Extent.Range(func(o int) bool {
		if s.labels[o] == Unlabeled {
			unlabeled++
		} else {
			labeled++
		}
		return true
	})
	switch {
	case unlabeled == 0:
		return StateFullyLabeled
	case labeled == 0:
		return StateUnlabeled
	default:
		return StatePartlyLabeled
	}
}

// Selector chooses which of a concept's traces an operation applies to,
// mirroring Cable's prompts: all traces, only unlabeled traces, or only the
// traces carrying a given label.
type Selector struct {
	mode  int // 0 = all, 1 = unlabeled, 2 = labeled-with
	label Label
}

// SelectAll selects every trace of the concept.
func SelectAll() Selector { return Selector{mode: 0} }

// SelectUnlabeled selects only the concept's unlabeled traces.
func SelectUnlabeled() Selector { return Selector{mode: 1} }

// SelectLabel selects only the traces carrying the given label.
func SelectLabel(l Label) Selector { return Selector{mode: 2, label: l} }

func (sel Selector) matches(l Label) bool {
	switch sel.mode {
	case 0:
		return true
	case 1:
		return l == Unlabeled
	default:
		return l == sel.label
	}
}

// Select returns the object indices of the concept's traces matched by the
// selector, in increasing order, or ErrBadConcept when id is out of range.
func (s *Session) Select(id int, sel Selector) ([]int, error) {
	if !s.ValidConcept(id) {
		return nil, s.badConcept(id)
	}
	return s.selectObjs(id, sel), nil
}

// selectObjs is Select over a validated concept ID.
func (s *Session) selectObjs(id int, sel Selector) []int {
	ext := s.lattice.Concept(id).Extent
	var out []int
	if n := ext.Len(); n > 0 {
		out = make([]int, 0, n)
	}
	ext.Range(func(o int) bool {
		if sel.matches(s.labels[o]) {
			out = append(out, o)
		}
		return true
	})
	return out
}

// LabelTrace assigns a label to a single trace class directly, bypassing
// the concept-based UI; ErrBadTrace reports an out-of-range index.
// Interactive debugging goes through LabelTraces; this entry point exists
// for tools that replay a known labeling (ground truth in experiments,
// saved labelings in the REPL).
func (s *Session) LabelTrace(i int, label Label) error {
	if !s.ValidTrace(i) {
		return s.badTrace(i)
	}
	s.labels[i] = label
	return nil
}

// LabelTraces implements the "Label traces" command: give every selected
// trace of the concept the label, replacing any existing labels (no trace
// ever carries more than one label). It returns the number of traces whose
// label changed, or ErrBadConcept when id is out of range.
func (s *Session) LabelTraces(id int, sel Selector, label Label) (int, error) {
	if !s.ValidConcept(id) {
		return 0, s.badConcept(id)
	}
	changed := 0
	for _, o := range s.selectObjs(id, sel) {
		if s.labels[o] != label {
			s.labels[o] = label
			changed++
		}
	}
	return changed, nil
}

// AddTraceCtx appends a trace to the session without rebuilding it. A trace
// identical to an existing class only bumps that class's multiplicity; a
// novel trace becomes a new context object, the lattice is maintained
// incrementally (concept.AddTraceCtx), and the new class starts Unlabeled.
// It returns the trace's class index and whether the class is new.
//
// The session's lattice is mutated in place, so a session given a
// lattice that its caller still uses (WithLattice) must call
// DetachLattice first. On error — the reference FA rejects the trace, or
// cc is done — the session is unchanged.
func (s *Session) AddTraceCtx(cc context.Context, t trace.Trace) (class int, isNew bool, err error) {
	class, isNew, err = s.set.AddChecked(t, func() error {
		return s.lattice.AddTraceCtx(cc, t, s.ref)
	})
	if err != nil {
		return 0, false, err
	}
	if !isNew {
		return class, false, nil
	}
	s.traces = append(s.traces, s.set.Class(class).Rep)
	s.labels = append(s.labels, Unlabeled)
	s.metrics.Gauge("cable.session.trace_classes").Set(int64(len(s.traces)))
	s.metrics.Gauge("cable.session.concepts").Set(int64(s.lattice.Len()))
	return class, true, nil
}

// DetachLattice replaces the session's lattice with a private deep copy.
// Call it before the first AddTraceCtx on a session whose lattice came
// from WithLattice and is still used elsewhere; afterwards mutations touch
// only this session. Detaching an already-private lattice is harmless but
// wastes a copy.
func (s *Session) DetachLattice() {
	s.lattice = s.lattice.Clone()
}

// TracesWith collects all traces carrying the label into a set, with the
// multiplicities of the underlying classes — the input to Step 3 (fixing
// the spec or rerunning the miner's back end on the good traces).
func (s *Session) TracesWith(label Label) *trace.Set {
	out := &trace.Set{}
	for i, l := range s.labels {
		if l != label {
			continue
		}
		c := s.set.Class(i)
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			out.Add(t)
		}
	}
	return out
}

// UsedLabels returns the distinct non-empty labels in use, sorted.
func (s *Session) UsedLabels() []Label {
	seen := map[Label]bool{}
	for _, l := range s.labels {
		if l != Unlabeled {
			seen[l] = true
		}
	}
	out := make([]Label, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// extentOf returns the extent bitset of selected objects of a validated
// concept ID.
func (s *Session) extentOf(id int, sel Selector) *bitset.Set {
	out := bitset.New(len(s.traces))
	for _, o := range s.selectObjs(id, sel) {
		out.Add(o)
	}
	return out
}
