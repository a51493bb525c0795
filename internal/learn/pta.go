// Package learn implements the stochastic finite-automaton learner that
// Strauss's back end and Cable's "Show FA" summary use: Raman and Patrick's
// sk-strings method, plus the "coring" postprocessing step (dropping
// low-frequency transitions) that the paper cites as the naive
// error-removal mechanism of the earlier specification-mining work.
//
// The learner builds a frequency-annotated prefix-tree acceptor (PTA) from a
// multiset of traces and then greedily merges states whose most probable
// k-strings agree, folding any nondeterminism the merge introduces by
// recursively merging target states. Merging only ever grows the language,
// so the learned automaton accepts every training trace.
package learn

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/trace"
)

// pta is a mutable automaton under state merging. States are dense indices
// into nodes; union-find tracks merged classes, and a class's
// representative is its smallest index. Labels are interned once per
// build and numbered by the sorted order of their renderings, so a node's
// edges, kept sorted by label, come out in rendering order.
type pta struct {
	uf     []int32
	nodes  []node
	labels []event.Event // label ID → event
	render []string      // label ID → canonical rendering
	seen   []bool        // scratch of states
}

type node struct {
	// edges leave the node sorted by label; after folding, a class has at
	// most one edge per label.
	edges []edge
	// end counts traces ending at the node; total adds the counts of its
	// edges, the node's outgoing weight (ending is one of the "next moves"
	// of the stochastic automaton). For a class representative both cover
	// the whole class.
	end, total int
}

type edge struct {
	label, to int32
	count     int
}

// buildPTA constructs the prefix-tree acceptor of the traces with
// multiplicities. A trace equal to its predecessor re-walks the
// predecessor's path, so a class's consecutive duplicates cost one
// comparison each.
func buildPTA(traces []trace.Trace) *pta {
	// While traces are read, each node's edges form a linked list in one
	// pool; labels are numbered in order of first appearance.
	type poolEdge struct {
		edge
		next int32
	}
	var (
		ids    = map[string]int32{}
		labels []event.Event
		render []string
		buf    []byte
		first  = []int32{-1}
		ends   = []int{0}
		pool   []poolEdge
		path   []int32 // pool edges of the previous trace
		last   int32   // node the previous trace ended at
	)
	for i, t := range traces {
		if i > 0 && sameEvents(t.Events, traces[i-1].Events) {
			for _, ei := range path {
				pool[ei].count++
			}
			ends[last]++
			continue
		}
		path = path[:0]
		cur := int32(0)
		for _, e := range t.Events {
			buf = e.AppendString(buf[:0])
			id, ok := ids[string(buf)]
			if !ok {
				id = int32(len(labels))
				key := string(buf)
				ids[key] = id
				labels = append(labels, e)
				render = append(render, key)
			}
			ei := first[cur]
			for ei >= 0 && pool[ei].label != id {
				ei = pool[ei].next
			}
			if ei < 0 {
				ei = int32(len(pool))
				pool = append(pool, poolEdge{edge{label: id, to: int32(len(ends))}, first[cur]})
				first[cur] = ei
				first = append(first, -1)
				ends = append(ends, 0)
			}
			pool[ei].count++
			path = append(path, ei)
			cur = pool[ei].to
		}
		ends[cur]++
		last = cur
	}

	// Renumber labels by rendering and cut each node's edges, sorted by
	// label, from one slab; capacities are capped so a merge that adds an
	// edge reallocates instead of writing into the next node's edges.
	byRender := make([]int32, len(labels))
	for i := range byRender {
		byRender[i] = int32(i)
	}
	slices.SortFunc(byRender, func(a, b int32) int { return cmp.Compare(render[a], render[b]) })
	p := &pta{
		uf:     make([]int32, len(ends)),
		nodes:  make([]node, len(ends)),
		labels: make([]event.Event, len(labels)),
		render: make([]string, len(labels)),
		seen:   make([]bool, len(ends)),
	}
	rank := make([]int32, len(labels))
	for r, id := range byRender {
		rank[id] = int32(r)
		p.labels[r] = labels[id]
		p.render[r] = render[id]
	}
	slab := make([]edge, 0, len(pool))
	for s := range p.nodes {
		p.uf[s] = int32(s)
		n := &p.nodes[s]
		n.end, n.total = ends[s], ends[s]
		lo := len(slab)
		for ei := first[s]; ei >= 0; ei = pool[ei].next {
			e := pool[ei].edge
			e.label = rank[e.label]
			slab = append(slab, e)
			n.total += e.count
		}
		n.edges = slab[lo:len(slab):len(slab)]
		slices.SortFunc(n.edges, func(a, b edge) int { return cmp.Compare(a.label, b.label) })
	}
	return p
}

// sameEvents reports whether two event sequences are equal. Slices over
// one backing array, as a trace class's duplicates are, are equal without
// a look at their events.
func sameEvents(a, b []event.Event) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func (p *pta) find(x int32) int32 {
	for p.uf[x] != x {
		p.uf[x] = p.uf[p.uf[x]]
		x = p.uf[x]
	}
	return x
}

// merge unions the classes of a and b and folds determinism: edges with the
// same label out of the merged class have their targets merged recursively.
// The result does not depend on the order the edges are folded in.
func (p *pta) merge(a, b int32) {
	a, b = p.find(a), p.find(b)
	if a == b {
		return
	}
	// Keep the smaller index as representative for determinism.
	if b < a {
		a, b = b, a
	}
	p.uf[b] = a
	p.nodes[a].end += p.nodes[b].end
	p.nodes[a].total += p.nodes[b].total
	moved := p.nodes[b].edges
	p.nodes[b].edges = nil
	for _, eb := range moved {
		// Re-resolve a: a recursive merge may have merged a itself into an
		// earlier class.
		a = p.find(a)
		na := &p.nodes[a]
		i, found := slices.BinarySearchFunc(na.edges, eb.label, func(e edge, label int32) int {
			return cmp.Compare(e.label, label)
		})
		if !found {
			na.edges = slices.Insert(na.edges, i, eb)
			continue
		}
		na.edges[i].count += eb.count
		p.merge(na.edges[i].to, eb.to)
	}
}

// states appends the live class representatives to order[:0] in BFS order
// from the root class, following edges in label order, and points every
// edge it follows at its target's representative.
func (p *pta) states(order []int32) []int32 {
	root := p.find(0)
	p.seen[root] = true
	order = append(order[:0], root)
	for i := 0; i < len(order); i++ {
		edges := p.nodes[order[i]].edges
		for j := range edges {
			to := p.find(edges[j].to)
			edges[j].to = to
			if !p.seen[to] {
				p.seen[to] = true
				order = append(order, to)
			}
		}
	}
	for _, s := range order {
		p.seen[s] = false
	}
	return order
}

// Result is a learned automaton together with the transition and acceptance
// frequencies observed in training, used by coring and by summaries.
type Result struct {
	// FA is the learned automaton.
	FA *fa.FA
	// TransCount[i] is the number of training events that traversed
	// FA.Transition(i).
	TransCount []int
	// AcceptCount[s] is the number of training traces ending at state s.
	AcceptCount map[fa.State]int
}

// freeze converts the merged PTA into an immutable automaton with counts.
// States are numbered in BFS order, so the root class is state 0.
func (p *pta) freeze(name string) (*Result, error) {
	order := p.states(nil)
	number := make([]fa.State, len(p.nodes))
	b := fa.NewBuilder(name)
	edges := 0
	for _, s := range order {
		number[s] = b.State()
		edges += len(p.nodes[s].edges)
	}
	res := &Result{AcceptCount: map[fa.State]int{}}
	if edges > 0 {
		res.TransCount = make([]int, 0, edges)
	}
	b.Start(number[order[0]])
	for _, s := range order {
		if p.nodes[s].end > 0 {
			b.Accept(number[s])
			res.AcceptCount[number[s]] = p.nodes[s].end
		}
	}
	for _, s := range order {
		for _, e := range p.nodes[s].edges {
			b.Edge(number[s], p.labels[e.label], number[e.to])
			res.TransCount = append(res.TransCount, e.count)
		}
	}
	f, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("learn: %v", err)
	}
	res.FA = f
	if len(res.TransCount) != f.NumTransitions() {
		// Duplicate edges cannot arise: after folding, each class has at
		// most one edge per label, and classes are distinct states.
		return nil, fmt.Errorf("learn: internal error: %d counts for %d transitions",
			len(res.TransCount), f.NumTransitions())
	}
	return res, nil
}
