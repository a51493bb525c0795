package cable

import (
	"fmt"

	"repro/internal/fa"
	"repro/internal/trace"
)

// Focus starts a sub-session on a single concept's selected traces,
// clustered with a different reference FA (Section 4.1): "Cable starts a
// sub-session, which focuses on a single concept's traces... The user can
// end a focused session at any time, at which time any labels that he
// assigned are automatically merged into the original session."
//
// The three FA templates the paper's experiments used for focusing are
// fa.Unordered, fa.NameProjection, and fa.SeedOrder.
type Focus struct {
	parent *Session
	sub    *Session
	objMap []int // sub object index -> parent object index
}

// Focus creates a focused sub-session over the selected traces of the
// concept, clustered by ref. Labels already assigned in the parent are
// carried into the sub-session. The sub-session inherits the parent's
// configuration (learner, metrics); opts override it — a service
// passes WithContext to bound the sub-lattice build by the request.
// ErrBadConcept reports an out-of-range concept ID.
func (s *Session) Focus(id int, sel Selector, ref *fa.FA, opts ...Option) (*Focus, error) {
	objs, err := s.Select(id, sel)
	if err != nil {
		return nil, err
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("cable: focus on empty selection of concept %d", id)
	}
	sub := &trace.Set{}
	for _, o := range objs {
		c := s.set.Class(o)
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			sub.Add(t)
		}
	}
	subSession, err := NewSession(sub, ref, append(s.options(), opts...)...)
	if err != nil {
		return nil, err
	}
	// Class order in sub matches first-appearance order over objs, which is
	// the parent's increasing object order, so class i of sub corresponds
	// to objs[i].
	if subSession.NumTraces() != len(objs) {
		return nil, fmt.Errorf("cable: focus class mismatch: %d vs %d", subSession.NumTraces(), len(objs))
	}
	for i, o := range objs {
		subSession.labels[i] = s.labels[o]
	}
	return &Focus{parent: s, sub: subSession, objMap: objs}, nil
}

// Session returns the focused sub-session; label and summarize it like any
// other session.
func (f *Focus) Session() *Session { return f.sub }

// End merges the sub-session's labels back into the parent and returns the
// number of parent traces whose label changed. ErrBadTrace reports a
// corrupted object map (a sub-session that no longer matches its parent) —
// impossible through this package's API, but checked rather than trusted
// because Focus handles flow through remote services.
func (f *Focus) End() (int, error) {
	changed := 0
	for i, o := range f.objMap {
		if !f.sub.ValidTrace(i) || !f.parent.ValidTrace(o) {
			return changed, fmt.Errorf("%w: focus merge of sub class %d into parent class %d", ErrBadTrace, i, o)
		}
		if l := f.sub.labels[i]; l != f.parent.labels[o] {
			f.parent.labels[o] = l
			changed++
		}
	}
	return changed, nil
}
