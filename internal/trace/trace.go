// Package trace represents program execution traces and collections of them.
//
// A Trace is a finite sequence of symbolic events (see internal/event): the
// scenario traces that the Strauss miner extracts, and the violation traces a
// verifier reports, are both Traces. A Set is an insertion-ordered multiset
// of traces that additionally maintains the partition into classes of
// identical traces — the unit of work for the paper's Baseline labeling
// method and the representatives from which concept lattices are built
// (Section 5.2 builds the lattice "from representatives for classes of
// identical scenarios, rather than from all of the scenarios").
package trace

import (
	"slices"

	"repro/internal/event"
)

// Trace is a finite sequence of events with an optional provenance ID.
// Equality and dedup ignore the ID: two traces are identical iff their event
// sequences are identical.
//
// Traces share their events freely: Read gives every occurrence of an event
// line the same event.Event, Uses slice included, and cuts the events of
// all its classes from one slab. Treat Events, and each event's Uses, as
// immutable; Project returns a fresh slice.
type Trace struct {
	// ID records where the trace came from, e.g. "xclock:run2:#17".
	ID string
	// Events is the event sequence.
	Events []event.Event
}

// New builds a trace from events.
func New(id string, events ...event.Event) Trace {
	return Trace{ID: id, Events: events}
}

// ParseEvents builds a trace by parsing each event string; it panics on a
// malformed event and is intended for literals in tests and examples.
func ParseEvents(id string, events ...string) Trace {
	tr := Trace{ID: id, Events: make([]event.Event, len(events))}
	for i, s := range events {
		tr.Events[i] = event.MustParse(s)
	}
	return tr
}

// Len returns the number of events.
func (t Trace) Len() int { return len(t.Events) }

// Key returns the canonical string identifying the event sequence; traces
// are identical iff their keys are equal.
func (t Trace) Key() string {
	return string(t.AppendKey(nil))
}

// AppendKey appends the bytes of t.Key() to dst and returns the extended
// slice. Identical traces append equal bytes. Hot paths that dedup or
// memoize per identical-event class (e.g. fa.Sim) reuse one buffer across
// calls and look classes up with string(buf), which the compiler optimizes
// to an allocation-free map access.
func (t Trace) AppendKey(dst []byte) []byte {
	for i, e := range t.Events {
		if i > 0 {
			dst = append(dst, "; "...)
		}
		dst = e.AppendString(dst)
	}
	return dst
}

// String renders the trace as its key (IDs are provenance, not content).
func (t Trace) String() string { return t.Key() }

// Names returns the sorted distinct variable names mentioned by the trace.
func (t Trace) Names() []string {
	set := map[string]bool{}
	for _, e := range t.Events {
		for _, n := range e.Names() {
			set[n] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Class is a group of identical traces within a Set.
type Class struct {
	// Rep is the first trace inserted with this event sequence.
	Rep Trace
	// Count is the number of traces in the class (including Rep).
	Count int
	// IDs lists the provenance IDs of all members, in insertion order.
	IDs []string
}

// Set is an insertion-ordered multiset of traces with identical-trace
// classes. The zero value is an empty set ready to use.
type Set struct {
	classes []Class
	keys    []string       // keys[i] is the key of classes[i]
	index   map[string]int // trace key -> index into classes
	total   int
}

// NewSet builds a set from the given traces.
func NewSet(traces ...Trace) *Set {
	s := &Set{}
	for _, t := range traces {
		s.Add(t)
	}
	return s
}

// Add inserts a trace. It returns the index of the trace's class and whether
// the class is new.
func (s *Set) Add(t Trace) (class int, isNew bool) {
	class, isNew, _ = s.AddChecked(t, nil)
	return class, isNew
}

// AddChecked is Add for callers that must vet a trace before it starts a
// new class: check, when not nil, runs only for a trace identical to none
// in the set, and if it fails the set is left unchanged and its error is
// returned with class -1. The trace is keyed once, in a stack buffer, and
// only a new class stores its key (see ClassKey).
func (s *Set) AddChecked(t Trace, check func() error) (class int, isNew bool, err error) {
	var buf [256]byte
	key := t.AppendKey(buf[:0])
	if i, ok := s.index[string(key)]; ok {
		s.total++
		s.classes[i].Count++
		s.classes[i].IDs = append(s.classes[i].IDs, t.ID)
		return i, false, nil
	}
	if check != nil {
		if err := check(); err != nil {
			return -1, false, err
		}
	}
	if s.index == nil {
		s.index = map[string]int{}
	}
	i := len(s.classes)
	s.keys = append(s.keys, string(key))
	s.index[s.keys[i]] = i
	s.classes = append(s.classes, Class{Rep: t, Count: 1, IDs: []string{t.ID}})
	s.total++
	return i, true, nil
}

// AddAll inserts every trace of another set, with multiplicities.
func (s *Set) AddAll(other *Set) {
	for _, c := range other.classes {
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			s.Add(t)
		}
	}
}

// Total returns the number of traces including duplicates.
func (s *Set) Total() int { return s.total }

// NumClasses returns the number of classes of identical traces.
func (s *Set) NumClasses() int { return len(s.classes) }

// Classes returns the identical-trace classes in insertion order. The
// returned slice is shared; callers must not mutate it.
func (s *Set) Classes() []Class { return s.classes }

// Class returns the i'th class.
func (s *Set) Class(i int) Class { return s.classes[i] }

// ClassKey returns the key (see Trace.Key) of the i'th class, computed once
// when the class was added.
func (s *Set) ClassKey(i int) string { return s.keys[i] }

// Representatives returns one trace per class, in insertion order. This is
// the object set from which the paper builds concept lattices.
func (s *Set) Representatives() []Trace {
	out := make([]Trace, len(s.classes))
	for i, c := range s.classes {
		out[i] = c.Rep
	}
	return out
}

// ClassOfKey returns the class index of the trace with the given canonical
// key (see Trace.Key), or -1. Callers that persist class identity — e.g. a
// write-ahead log of labeling actions — store keys and resolve them here on
// replay, which stays correct even if class indices shift between runs.
func (s *Set) ClassOfKey(key string) int {
	if s.index == nil {
		return -1
	}
	if i, ok := s.index[key]; ok {
		return i
	}
	return -1
}

// Alphabet returns the sorted distinct event strings occurring in the set.
func (s *Set) Alphabet() []event.Event {
	seen := map[string]event.Event{}
	for _, c := range s.classes {
		for _, e := range c.Rep.Events {
			seen[e.String()] = e
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]event.Event, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}
