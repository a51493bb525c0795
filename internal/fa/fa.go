// Package fa implements finite automata over program-event alphabets.
//
// Temporal specifications in this repository are finite automata (FAs) whose
// transitions are labeled by symbolic events (internal/event). The package
// supports nondeterministic automata with multiple start states, simulation
// of traces, computation of the set of transitions a trace executes on its
// accepting runs (the context relation R of Section 3.2 of the paper),
// determinization into dense complete DFAs, Hopcroft minimization,
// products, language inclusion and equivalence with verified witnesses,
// bounded language enumeration, the Focus templates of Section 4.1, and DOT
// and text serialization.
//
// A transition labeled with the reserved wildcard event (see Wildcard)
// matches any event; wildcards appear in the name-projection Focus template.
// Determinize expands them over an explicit analysis alphabet
// (JointAlphabet adds one fresh symbol for the events outside it); Minimize
// rejects them.
package fa

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/event"
)

// State identifies a state of an automaton; states are dense indices
// 0..NumStates-1.
type State int

// WildcardOp is the reserved operation name of the wildcard label.
const WildcardOp = "*"

// Wildcard returns the label that matches any event.
func Wildcard() event.Event { return event.Event{Op: WildcardOp} }

// IsWildcard reports whether the label matches any event.
func IsWildcard(e event.Event) bool { return e.Op == WildcardOp }

// Transition is a labeled edge. Transitions are identified by their dense
// index in the automaton (the attribute set of concept analysis).
type Transition struct {
	From  State
	To    State
	Label event.Event
}

// String renders the transition as "s0 --X = fopen()--> s1".
func (t Transition) String() string {
	var buf [64]byte
	b := append(buf[:0], 's')
	b = strconv.AppendInt(b, int64(t.From), 10)
	b = t.Label.AppendString(append(b, " --"...))
	b = strconv.AppendInt(append(b, "--> s"...), int64(t.To), 10)
	return string(b)
}

// FA is an immutable nondeterministic finite automaton. Construct one with a
// Builder; all exported operations return fresh automata.
type FA struct {
	name      string
	numStates int
	start     *bitset.Set
	accept    *bitset.Set
	trans     []Transition

	labels   []event.Event  // interned labels, indexed by label id
	labelIdx map[string]int // label string -> label id
	labelOf  []int          // transition index -> label id

	// byFrom[s] lists transition indices leaving state s.
	byFrom [][]int
	// byTo[s] lists transition indices entering state s.
	byTo [][]int
	// hasWildcard caches whether any transition is a wildcard.
	hasWildcard bool

	// simc lazily holds the compiled simulation plan (see Sim). It is a
	// pointer so shallow copies (WithName) share one plan per automaton.
	simc *simCache
}

// Builder accumulates states and transitions for an FA.
type Builder struct {
	name      string
	numStates int
	start     []State
	accept    []State
	trans     []Transition
	seen      map[string]bool // dedup of (from,to,label)
}

// NewBuilder returns an empty builder. The name is used in renderings only.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, seen: map[string]bool{}}
}

// State allocates and returns a fresh state.
func (b *Builder) State() State {
	s := State(b.numStates)
	b.numStates++
	return s
}

// States allocates n fresh states.
func (b *Builder) States(n int) []State {
	out := make([]State, n)
	for i := range out {
		out[i] = b.State()
	}
	return out
}

// Start marks states as start states.
func (b *Builder) Start(states ...State) { b.start = append(b.start, states...) }

// Accept marks states as accepting.
func (b *Builder) Accept(states ...State) { b.accept = append(b.accept, states...) }

// Edge adds a transition from -> to labeled by the event. Duplicate edges
// (same endpoints and label) are ignored so builders can be driven from
// multisets of traces.
func (b *Builder) Edge(from State, label event.Event, to State) {
	key := fmt.Sprintf("%d\x00%s\x00%d", from, label, to)
	if b.seen[key] {
		return
	}
	b.seen[key] = true
	b.trans = append(b.trans, Transition{From: from, To: to, Label: label})
}

// EdgeStr is Edge with the label given in event syntax; it panics on a
// malformed label and is intended for literals.
func (b *Builder) EdgeStr(from State, label string, to State) {
	b.Edge(from, event.MustParse(label), to)
}

// WildcardEdge adds a transition matching any event.
func (b *Builder) WildcardEdge(from, to State) { b.Edge(from, Wildcard(), to) }

// Build validates and freezes the automaton.
func (b *Builder) Build() (*FA, error) {
	f := &FA{
		name:      b.name,
		numStates: b.numStates,
		start:     bitset.New(b.numStates),
		accept:    bitset.New(b.numStates),
		trans:     append([]Transition(nil), b.trans...),
		labelIdx:  map[string]int{},
		simc:      &simCache{},
	}
	check := func(s State, what string) error {
		if int(s) < 0 || int(s) >= b.numStates {
			return fmt.Errorf("fa %q: %s state s%d out of range [0,%d)", b.name, what, int(s), b.numStates)
		}
		return nil
	}
	for _, s := range b.start {
		if err := check(s, "start"); err != nil {
			return nil, err
		}
		f.start.Add(int(s))
	}
	for _, s := range b.accept {
		if err := check(s, "accept"); err != nil {
			return nil, err
		}
		f.accept.Add(int(s))
	}
	if f.start.Empty() && b.numStates > 0 {
		return nil, fmt.Errorf("fa %q: no start state", b.name)
	}
	f.byFrom = make([][]int, b.numStates)
	f.byTo = make([][]int, b.numStates)
	f.labelOf = make([]int, len(f.trans))
	for i, t := range f.trans {
		if err := check(t.From, "transition source"); err != nil {
			return nil, err
		}
		if err := check(t.To, "transition target"); err != nil {
			return nil, err
		}
		key := t.Label.String()
		id, ok := f.labelIdx[key]
		if !ok {
			id = len(f.labels)
			f.labelIdx[key] = id
			f.labels = append(f.labels, t.Label)
		}
		f.labelOf[i] = id
		f.byFrom[t.From] = append(f.byFrom[t.From], i)
		f.byTo[t.To] = append(f.byTo[t.To], i)
		if IsWildcard(t.Label) {
			f.hasWildcard = true
		}
	}
	return f, nil
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() *FA {
	f, err := b.Build()
	if err != nil {
		panic(err)
	}
	return f
}

// Name returns the automaton's display name.
func (f *FA) Name() string { return f.name }

// WithName returns a shallow copy with a different display name.
func (f *FA) WithName(name string) *FA {
	g := *f
	g.name = name
	return &g
}

// NumStates returns the number of states.
func (f *FA) NumStates() int { return f.numStates }

// NumTransitions returns the number of transitions.
func (f *FA) NumTransitions() int { return len(f.trans) }

// Transitions returns the transitions; the slice is shared and must not be
// mutated. Transition i is attribute i in concept analysis.
func (f *FA) Transitions() []Transition { return f.trans }

// Transition returns the i'th transition.
func (f *FA) Transition(i int) Transition { return f.trans[i] }

// StartStates returns the start states in increasing order.
func (f *FA) StartStates() []State { return toStates(f.start) }

// AcceptStates returns the accepting states in increasing order.
func (f *FA) AcceptStates() []State { return toStates(f.accept) }

// HasWildcard reports whether any transition is labeled by the wildcard.
func (f *FA) HasWildcard() bool { return f.hasWildcard }

// Alphabet returns the distinct non-wildcard labels, sorted by rendering.
func (f *FA) Alphabet() []event.Event {
	out := make([]event.Event, 0, len(f.labels))
	for _, l := range f.labels {
		if !IsWildcard(l) {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// IsDeterministic reports whether the automaton has at most one start state
// and no state with two transitions matching the same event (wildcards
// overlap everything, so any wildcard alongside another edge from the same
// state makes the automaton nondeterministic).
func (f *FA) IsDeterministic() bool {
	if f.start.Len() > 1 {
		return false
	}
	for s := 0; s < f.numStates; s++ {
		seen := map[int]bool{}
		wild := false
		for _, ti := range f.byFrom[s] {
			id := f.labelOf[ti]
			if IsWildcard(f.trans[ti].Label) {
				if wild || len(seen) > 0 {
					return false
				}
				wild = true
				continue
			}
			if wild || seen[id] {
				return false
			}
			seen[id] = true
		}
	}
	return true
}

// Reachable marks the states reachable from a start state.
func Reachable(f *FA) []bool {
	return f.closure(f.start, f.byFrom, func(t Transition) State { return t.To })
}

// Coreachable marks the states from which some accepting state is
// reachable.
func Coreachable(f *FA) []bool {
	return f.closure(f.accept, f.byTo, func(t Transition) State { return t.From })
}

// closure marks the seeds and every state reachable from them over the
// transition lists adj, where step gives a transition's far end.
func (f *FA) closure(seeds *bitset.Set, adj [][]int, step func(Transition) State) []bool {
	seen := make([]bool, f.numStates)
	stack := seeds.Elems()
	for _, s := range stack {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ti := range adj[s] {
			if n := int(step(f.trans[ti])); !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return seen
}

func toStates(s *bitset.Set) []State {
	elems := s.Elems()
	out := make([]State, len(elems))
	for i, e := range elems {
		out[i] = State(e)
	}
	return out
}

// String renders the automaton as a compact listing.
func (f *FA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fa %q: %d states, %d transitions\n", f.name, f.numStates, len(f.trans))
	fmt.Fprintf(&b, "  start: %s  accept: %s\n", statesString(f.StartStates()), statesString(f.AcceptStates()))
	for i, t := range f.trans {
		fmt.Fprintf(&b, "  [%d] %s\n", i, t)
	}
	return b.String()
}

func statesString(ss []State) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = fmt.Sprintf("s%d", int(s))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
