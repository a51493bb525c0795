package fa

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/event"
)

// An independent implementation of the automaton operations, kept as a
// test oracle for the DFA engine (dfa.go, minimize.go): subset
// construction over *FA, completion, Moore partition refinement, and
// language equality by comparing canonical renderings of minimal complete
// DFAs. None of it shares code with the engine except Trim and the
// Builder.

// MooreMinimize hands the Moore oracle to the external test package,
// whose tests take the specification corpus as input.
func MooreMinimize(f *FA) (*FA, error) { return f.mooreMinimize() }

// CanonicalEquivalent hands the canonical-form oracle to the external
// test package.
func CanonicalEquivalent(f, g *FA) (bool, error) { return canonicalEquivalent(f, g) }

// mooreDeterminize returns a deterministic automaton recognizing the same
// language, built by subset construction and trimmed. It returns an error if
// the automaton contains wildcard transitions.
func (f *FA) mooreDeterminize() (*FA, error) {
	if f.hasWildcard {
		return nil, fmt.Errorf("fa %q: cannot determinize with wildcard transitions", f.name)
	}
	type subset struct {
		key   string
		set   *bitset.Set
		state State
	}
	b := NewBuilder(f.name)
	seen := map[string]*subset{}
	var queue []*subset

	mk := func(set *bitset.Set) *subset {
		key := set.Key()
		if s, ok := seen[key]; ok {
			return s
		}
		s := &subset{key: key, set: set, state: b.State()}
		seen[key] = s
		queue = append(queue, s)
		if set.Intersects(f.accept) {
			b.Accept(s.state)
		}
		return s
	}
	start := mk(f.start.Clone())
	b.Start(start.state)

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Group outgoing transitions of the subset by label.
		byLabel := map[int]*bitset.Set{}
		cur.set.Range(func(s int) bool {
			for _, ti := range f.byFrom[s] {
				id := f.labelOf[ti]
				tgt := byLabel[id]
				if tgt == nil {
					tgt = bitset.New(f.numStates)
					byLabel[id] = tgt
				}
				tgt.Add(int(f.trans[ti].To))
			}
			return true
		})
		// Deterministic iteration order for reproducible state numbering.
		ids := make([]int, 0, len(byLabel))
		for id := range byLabel {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			return f.labels[ids[i]].String() < f.labels[ids[j]].String()
		})
		for _, id := range ids {
			next := mk(byLabel[id])
			b.Edge(cur.state, f.labels[id], next.state)
		}
	}
	return b.MustBuild().Trim(), nil
}

// mooreComplete returns a deterministic automaton with a transition for every
// (state, label) pair over the given alphabet, adding a rejecting sink when
// needed. The input must be deterministic and wildcard-free.
func (f *FA) mooreComplete(alphabet []event.Event) (*FA, error) {
	if f.hasWildcard {
		return nil, fmt.Errorf("fa %q: cannot complete with wildcards", f.name)
	}
	if !f.IsDeterministic() {
		return nil, fmt.Errorf("fa %q: Complete requires a deterministic automaton", f.name)
	}
	b := NewBuilder(f.name)
	b.States(f.numStates)
	for _, s := range f.StartStates() {
		b.Start(s)
	}
	for _, s := range f.AcceptStates() {
		b.Accept(s)
	}
	sink := State(-1)
	getSink := func() State {
		if sink < 0 {
			sink = b.State()
		}
		return sink
	}
	has := make([]map[string]bool, f.numStates)
	for s := 0; s < f.numStates; s++ {
		has[s] = map[string]bool{}
		for _, ti := range f.byFrom[s] {
			has[s][f.trans[ti].Label.String()] = true
		}
	}
	for _, t := range f.trans {
		b.Edge(t.From, t.Label, t.To)
	}
	for s := 0; s < f.numStates; s++ {
		for _, e := range alphabet {
			if !has[s][e.String()] {
				b.Edge(State(s), e, getSink())
			}
		}
	}
	if sink >= 0 {
		for _, e := range alphabet {
			b.Edge(sink, e, sink)
		}
	}
	if f.numStates == 0 {
		s := b.State()
		b.Start(s)
		for _, e := range alphabet {
			b.Edge(s, e, s)
		}
	}
	return b.MustBuild(), nil
}

// mooreMinimize returns the minimal deterministic automaton for the language,
// using determinization followed by Moore partition refinement and trimming.
func (f *FA) mooreMinimize() (*FA, error) {
	dfa, err := f.mooreDeterminize()
	if err != nil {
		return nil, err
	}
	alphabet := dfa.Alphabet()
	comp, err := dfa.mooreComplete(alphabet)
	if err != nil {
		return nil, err
	}
	n := comp.numStates
	if n == 0 {
		return comp, nil
	}
	// delta[s][labelID] = successor
	labelIDs := map[string]int{}
	for i, e := range alphabet {
		labelIDs[e.String()] = i
	}
	delta := make([][]int, n)
	for s := range delta {
		delta[s] = make([]int, len(alphabet))
		for i := range delta[s] {
			delta[s][i] = -1
		}
	}
	for _, t := range comp.trans {
		delta[t.From][labelIDs[t.Label.String()]] = int(t.To)
	}
	// Moore refinement: iterate signatures until the partition stabilizes.
	part := make([]int, n)
	for s := 0; s < n; s++ {
		if comp.accept.Has(s) {
			part[s] = 1
		}
	}
	numBlocks := 2
	for {
		sig := make([]string, n)
		for s := 0; s < n; s++ {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d", part[s])
			for _, to := range delta[s] {
				fmt.Fprintf(&sb, ",%d", part[to])
			}
			sig[s] = sb.String()
		}
		blockOf := map[string]int{}
		next := make([]int, n)
		for s := 0; s < n; s++ {
			id, ok := blockOf[sig[s]]
			if !ok {
				id = len(blockOf)
				blockOf[sig[s]] = id
			}
			next[s] = id
		}
		if len(blockOf) == numBlocks {
			part = next
			break
		}
		numBlocks = len(blockOf)
		part = next
	}
	b := NewBuilder(f.name)
	b.States(numBlocks)
	startBlock := part[int(comp.StartStates()[0])]
	b.Start(State(startBlock))
	acceptSeen := map[int]bool{}
	comp.accept.Range(func(s int) bool {
		if !acceptSeen[part[s]] {
			acceptSeen[part[s]] = true
			b.Accept(State(part[s]))
		}
		return true
	})
	for s := 0; s < n; s++ {
		for li, to := range delta[s] {
			b.Edge(State(part[s]), alphabet[li], State(part[to]))
		}
	}
	return b.MustBuild().Trim(), nil
}

// canonicalEquivalent reports whether f and g recognize the same language, by
// comparing canonical forms of their minimal complete DFAs over the union of
// their alphabets.
func canonicalEquivalent(f, g *FA) (bool, error) {
	alpha := unionAlphabet(f, g)
	cf, err := canonical(f, alpha)
	if err != nil {
		return false, err
	}
	cg, err := canonical(g, alpha)
	if err != nil {
		return false, err
	}
	return cf == cg, nil
}

func unionAlphabet(f, g *FA) []event.Event {
	seen := map[string]event.Event{}
	for _, e := range f.Alphabet() {
		seen[e.String()] = e
	}
	for _, e := range g.Alphabet() {
		seen[e.String()] = e
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]event.Event, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// canonical renders the minimal complete DFA of f over alphabet as a string
// unique up to language equality: BFS numbering from the start state with
// labels visited in sorted order yields an isomorphism-invariant form.
func canonical(f *FA, alphabet []event.Event) (string, error) {
	min, err := f.mooreMinimize()
	if err != nil {
		return "", err
	}
	comp, err := min.mooreComplete(alphabet)
	if err != nil {
		return "", err
	}
	succ := make([]map[string]int, comp.numStates)
	for i := range succ {
		succ[i] = map[string]int{}
	}
	for _, t := range comp.trans {
		succ[t.From][t.Label.String()] = int(t.To)
	}
	order := make([]int, 0, comp.numStates)
	number := make(map[int]int)
	starts := comp.StartStates()
	if len(starts) == 0 {
		return "empty", nil
	}
	queue := []int{int(starts[0])}
	number[int(starts[0])] = 0
	order = append(order, int(starts[0]))
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, e := range alphabet {
			to := succ[s][e.String()]
			if _, ok := number[to]; !ok {
				number[to] = len(order)
				order = append(order, to)
				queue = append(queue, to)
			}
		}
	}
	var b strings.Builder
	for _, s := range order {
		if comp.accept.Has(s) {
			b.WriteString("A")
		} else {
			b.WriteString(".")
		}
		for _, e := range alphabet {
			fmt.Fprintf(&b, " %d", number[succ[s][e.String()]])
		}
		b.WriteString(";")
	}
	return b.String(), nil
}
