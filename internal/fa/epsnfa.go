package fa

import "repro/internal/event"

// EpsNFA builds an automaton with ε-transitions, the intermediate form of
// Thompson's construction (Compile) and of prog's statement wiring; Build
// eliminates the ε-transitions into the package's ε-free representation.
// The zero value is an empty automaton.
type EpsNFA struct {
	eps   [][]int // eps[s] lists the ε-successors of state s
	edges []epsEdge
}

type epsEdge struct {
	from, to int
	label    event.Event
}

// State adds a state and returns it.
func (n *EpsNFA) State() int {
	n.eps = append(n.eps, nil)
	return len(n.eps) - 1
}

// Eps adds an ε-transition.
func (n *EpsNFA) Eps(from, to int) { n.eps[from] = append(n.eps[from], to) }

// Edge adds a transition labeled by the event.
func (n *EpsNFA) Edge(from int, label event.Event, to int) {
	n.edges = append(n.edges, epsEdge{from: from, to: to, label: label})
}

// WildcardEdge adds a transition matching any event.
func (n *EpsNFA) WildcardEdge(from, to int) { n.Edge(from, Wildcard(), to) }

// Build eliminates the ε-transitions and returns the trimmed automaton
// that starts at start and accepts at accept: state s gains every labeled
// transition leaving its ε-closure, and accepts if its closure contains
// accept.
func (n *EpsNFA) Build(name string, start, accept int) (*FA, error) {
	// ε-closures by DFS from each state.
	closure := make([][]int, len(n.eps))
	for s := range closure {
		seen := map[int]bool{s: true}
		stack := []int{s}
		var cl []int
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cl = append(cl, cur)
			for _, t := range n.eps[cur] {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
		closure[s] = cl
	}

	b := NewBuilder(name)
	states := b.States(len(n.eps))
	b.Start(states[start])
	outBy := make(map[int][]epsEdge)
	for _, e := range n.edges {
		outBy[e.from] = append(outBy[e.from], e)
	}
	for s, cl := range closure {
		for _, t := range cl {
			if t == accept {
				b.Accept(states[s])
			}
			for _, e := range outBy[t] {
				b.Edge(states[s], e.label, states[e.to])
			}
		}
	}
	fa, err := b.Build()
	if err != nil {
		return nil, err
	}
	return fa.Trim(), nil
}
