package fa

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/trace"
)

// This file is the language-level half of the package: an automaton is
// determinized once into a dense complete DFA — contiguous symbol ids,
// flat delta rows — where product walks, emptiness BFS and partition
// refinement (minimize.go) touch plain int32 tables. All semantics are
// relative to an explicit analysis alphabet; wildcard transitions expand
// over it, and JointAlphabet adds a fresh "other" symbol when wildcards
// are present so behaviour outside both concrete alphabets stays
// observable. Every counterexample Includes and Equivalent find is
// re-executed through the compiled Sim plans before it escapes: they
// return an error rather than an unverified witness.

// DFA is a complete deterministic automaton over a dense alphabet: every
// state has exactly one successor per symbol (Delta[s][c]), and every
// event outside the alphabet is rejected.
type DFA struct {
	// Alphabet is the dense symbol order: sorted by Event.String, no
	// duplicates, no wildcards.
	Alphabet []event.Event
	// Start is the initial state.
	Start int
	// Accept marks the accepting states.
	Accept []bool
	// Delta[s][c] is the successor of state s on Alphabet[c].
	Delta [][]int32
}

// Determinize compiles f into a complete DFA over the given analysis
// alphabet by subset construction: the empty subset is the rejecting
// sink, so the result is total by construction. Wildcard transitions
// match every alphabet symbol. The alphabet must cover every concrete
// label of f; determinizing against a narrower alphabet would silently
// drop transitions, so it is an error instead.
func Determinize(f *FA, alphabet []event.Event) (*DFA, error) {
	alpha, idx, err := normalizeAlphabet(alphabet)
	if err != nil {
		return nil, fmt.Errorf("fa: determinize %q: %w", f.name, err)
	}
	for _, e := range f.labels {
		if _, ok := idx[e.String()]; !ok && !IsWildcard(e) {
			return nil, fmt.Errorf("fa: determinize %q: alphabet does not cover label %s", f.name, e)
		}
	}
	n := f.numStates
	k := len(alpha)

	// Per NFA state: successors grouped by symbol, wildcard successors.
	bySym := make([][][]int32, n)
	wild := make([][]int32, n)
	for s := range bySym {
		bySym[s] = make([][]int32, k)
	}
	for _, t := range f.trans {
		if IsWildcard(t.Label) {
			wild[t.From] = append(wild[t.From], int32(t.To))
			continue
		}
		c := idx[t.Label.String()]
		bySym[t.From][c] = append(bySym[t.From][c], int32(t.To))
	}

	d := &DFA{Alphabet: alpha}
	seen := map[string]int{}
	var sets []*bitset.Set
	mk := func(set *bitset.Set) int {
		key := set.Key()
		if id, ok := seen[key]; ok {
			return id
		}
		id := len(sets)
		seen[key] = id
		sets = append(sets, set)
		d.Accept = append(d.Accept, set.Intersects(f.accept))
		d.Delta = append(d.Delta, make([]int32, k))
		return id
	}
	d.Start = mk(f.start.Clone())
	for head := 0; head < len(sets); head++ {
		cur := sets[head]
		for c := 0; c < k; c++ {
			next := bitset.New(n)
			cur.Range(func(s int) bool {
				for _, to := range bySym[s][c] {
					next.Add(int(to))
				}
				for _, to := range wild[s] {
					next.Add(int(to))
				}
				return true
			})
			d.Delta[head][c] = int32(mk(next))
		}
	}
	return d, nil
}

// normalizeAlphabet sorts and dedupes the events and rejects wildcards.
func normalizeAlphabet(alphabet []event.Event) ([]event.Event, map[string]int, error) {
	byKey := map[string]event.Event{}
	for _, e := range alphabet {
		if IsWildcard(e) {
			return nil, nil, errors.New("alphabet must not contain the wildcard")
		}
		byKey[e.String()] = e
	}
	alpha, keys := sortedEvents(byKey)
	idx := make(map[string]int, len(keys))
	for i, k := range keys {
		idx[k] = i
	}
	return alpha, idx, nil
}

// sortedEvents returns the map's events ordered by their keys, and the
// sorted keys.
func sortedEvents(byKey map[string]event.Event) ([]event.Event, []string) {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]event.Event, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out, keys
}

// Complement flips the accepting set; over a complete DFA that is exact
// language complement relative to the analysis alphabet. The delta table
// is shared with the receiver.
func (d *DFA) Complement() *DFA {
	acc := make([]bool, len(d.Accept))
	for i, a := range d.Accept {
		acc[i] = !a
	}
	return &DFA{Alphabet: d.Alphabet, Start: d.Start, Accept: acc, Delta: d.Delta}
}

// Product builds the synchronized product of two complete DFAs over the
// same alphabet, restricted to reachable pairs; accept combines the
// operands' accepting flags (conjunction gives intersection, x && !y
// gives the inclusion-counterexample language, x != y the symmetric
// difference).
func Product(a, b *DFA, accept func(aAcc, bAcc bool) bool) (*DFA, error) {
	if len(a.Alphabet) != len(b.Alphabet) {
		return nil, errors.New("fa: product requires identical alphabets")
	}
	for i := range a.Alphabet {
		if a.Alphabet[i].String() != b.Alphabet[i].String() {
			return nil, errors.New("fa: product requires identical alphabets")
		}
	}
	k := len(a.Alphabet)
	type pair struct{ x, y int32 }
	id := map[pair]int{}
	var pairs []pair
	d := &DFA{Alphabet: a.Alphabet}
	mk := func(p pair) int {
		if i, ok := id[p]; ok {
			return i
		}
		i := len(pairs)
		id[p] = i
		pairs = append(pairs, p)
		d.Accept = append(d.Accept, accept(a.Accept[p.x], b.Accept[p.y]))
		d.Delta = append(d.Delta, make([]int32, k))
		return i
	}
	d.Start = mk(pair{int32(a.Start), int32(b.Start)})
	for head := 0; head < len(pairs); head++ {
		p := pairs[head]
		for c := 0; c < k; c++ {
			d.Delta[head][c] = int32(mk(pair{a.Delta[p.x][c], b.Delta[p.y][c]}))
		}
	}
	return d, nil
}

// Witness returns the shortest trace the automaton accepts, or ok=false
// when the language is empty. BFS expands symbols in alphabet order, so
// ties between equal-length words break toward the lexicographically
// least one and the result is deterministic.
func (d *DFA) Witness() (trace.Trace, bool) {
	n := len(d.Accept)
	if n == 0 {
		return trace.Trace{}, false
	}
	prev := make([]int32, n)
	psym := make([]int32, n)
	seen := make([]bool, n)
	for i := range prev {
		prev[i] = -1
	}
	seen[d.Start] = true
	if d.Accept[d.Start] {
		return trace.New("witness"), true
	}
	queue := []int32{int32(d.Start)}
	goal := int32(-1)
	for len(queue) > 0 && goal < 0 {
		s := queue[0]
		queue = queue[1:]
		for c, to := range d.Delta[s] {
			if seen[to] {
				continue
			}
			seen[to] = true
			prev[to] = s
			psym[to] = int32(c)
			if d.Accept[to] {
				goal = to
				break
			}
			queue = append(queue, to)
		}
	}
	if goal < 0 {
		return trace.Trace{}, false
	}
	var rev []event.Event
	for s := goal; prev[s] >= 0; s = prev[s] {
		rev = append(rev, d.Alphabet[psym[s]])
	}
	evs := make([]event.Event, len(rev))
	for i := range rev {
		evs[i] = rev[len(rev)-1-i]
	}
	return trace.New("witness", evs...), true
}

// FA converts the complete DFA back to an automaton, sink included; Trim
// the result to drop states off every accepting path.
func (d *DFA) FA(name string) *FA {
	b := NewBuilder(name)
	ss := b.States(len(d.Accept))
	b.Start(ss[d.Start])
	for i, a := range d.Accept {
		if a {
			b.Accept(ss[i])
		}
	}
	for s, row := range d.Delta {
		for c, to := range row {
			b.Edge(ss[s], d.Alphabet[c], ss[int(to)])
		}
	}
	return b.MustBuild()
}

// JointAlphabet returns the joint analysis alphabet for f and g: the
// union of their concrete labels, extended — when either automaton has
// wildcard transitions — with one fresh "other" symbol standing in for
// every event outside the union. That keeps wildcard-only differences
// observable (a wildcard automaton accepts the fresh symbol, a concrete
// one rejects it) while witnesses remain executable traces.
func JointAlphabet(f, g *FA) []event.Event {
	byKey := map[string]event.Event{}
	for _, a := range []*FA{f, g} {
		for _, e := range a.labels {
			if !IsWildcard(e) {
				byKey[e.String()] = e
			}
		}
	}
	if f.hasWildcard || g.hasWildcard {
		name := "other"
		for i := 2; ; i++ {
			if _, taken := byKey[name+"()"]; !taken {
				break
			}
			name = fmt.Sprintf("other%d", i)
		}
		other := event.Call(name)
		byKey[other.String()] = other
	}
	out, _ := sortedEvents(byKey)
	return out
}

// Includes reports whether L(a) ⊆ L(b) over the joint analysis alphabet.
// When inclusion fails, the returned witness is a shortest concrete trace
// accepted by a and rejected by b.
func Includes(a, b *FA) (bool, trace.Trace, error) {
	w, found, err := separate(a, b, func(x, y bool) bool { return x && !y })
	return err == nil && !found, w, err
}

// Equivalent reports whether a and b recognize the same language over
// the joint analysis alphabet, from one product of their DFAs that
// accepts where exactly one side does. Use Includes in each direction for
// a separating witness.
func Equivalent(a, b *FA) (bool, error) {
	_, found, err := separate(a, b, func(x, y bool) bool { return x != y })
	return err == nil && !found, err
}

// separate returns the shortest trace over a's and b's joint alphabet on
// which accept(a accepts, b accepts) holds, from the emptiness BFS over
// the product of their DFAs, or found=false when there is none. The trace
// is re-executed through both automata's Sim plans before it is returned;
// one that fails re-execution is an internal error, never a result.
func separate(a, b *FA, accept func(aAcc, bAcc bool) bool) (w trace.Trace, found bool, err error) {
	alpha := JointAlphabet(a, b)
	da, err := Determinize(a, alpha)
	if err != nil {
		return trace.Trace{}, false, err
	}
	db, err := Determinize(b, alpha)
	if err != nil {
		return trace.Trace{}, false, err
	}
	diff, err := Product(da, db, accept)
	if err != nil {
		return trace.Trace{}, false, err
	}
	w, found = diff.Witness()
	if found && !accept(a.Accepts(w), b.Accepts(w)) {
		return trace.Trace{}, false, fmt.Errorf(
			"fa: witness %q failed re-execution: accepted by %q: %v, by %q: %v",
			w.Key(), a.name, a.Accepts(w), b.name, b.Accepts(w))
	}
	return w, found, nil
}
