package fa

// Trim returns an automaton restricted to useful states: reachable from a
// start state and able to reach an accepting state. The trimmed automaton
// recognizes the same language with (possibly) fewer states and transitions.
func (f *FA) Trim() *FA {
	reach, live := Reachable(f), Coreachable(f)
	b := NewBuilder(f.name)
	remap := make([]State, f.numStates)
	useful := 0
	for s := range remap {
		remap[s] = -1
		if reach[s] && live[s] {
			remap[s] = b.State()
			useful++
			if f.start.Has(s) {
				b.Start(remap[s])
			}
			if f.accept.Has(s) {
				b.Accept(remap[s])
			}
		}
	}
	for _, t := range f.trans {
		if remap[t.From] >= 0 && remap[t.To] >= 0 {
			b.Edge(remap[t.From], t.Label, remap[t.To])
		}
	}
	if useful == 0 {
		// Empty language: one non-accepting start state.
		b.Start(b.State())
	}
	return b.MustBuild()
}

// Union returns an automaton accepting L(f) ∪ L(g).
func Union(f, g *FA) *FA {
	b := NewBuilder(f.name + "|" + g.name)
	fs := b.States(f.numStates)
	gs := b.States(g.numStates)
	for _, s := range f.StartStates() {
		b.Start(fs[int(s)])
	}
	for _, s := range g.StartStates() {
		b.Start(gs[int(s)])
	}
	for _, s := range f.AcceptStates() {
		b.Accept(fs[int(s)])
	}
	for _, s := range g.AcceptStates() {
		b.Accept(gs[int(s)])
	}
	for _, t := range f.trans {
		b.Edge(fs[int(t.From)], t.Label, fs[int(t.To)])
	}
	for _, t := range g.trans {
		b.Edge(gs[int(t.From)], t.Label, gs[int(t.To)])
	}
	if f.numStates+g.numStates == 0 {
		b.Start(b.State())
	}
	return b.MustBuild()
}
