package fa

// The reference implementation of Enumerate as it was before frontier
// nodes became word rows: every node owns a cloned state set and a copy
// of its event prefix, and successors are found by comparing label
// renderings per (node, label, transition). The differential tests pin
// Enumerate to it.

import (
	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/trace"
)

func (f *FA) oracleEnumerate(maxLen, limit int) []trace.Trace {
	type node struct {
		states *bitset.Set
		events []event.Event
	}
	var out []trace.Trace
	if limit <= 0 {
		return out
	}
	frontier := []node{{states: f.start.Clone()}}
	labelOrder := f.oracleSortedLabels()
	for depth := 0; depth <= maxLen && len(frontier) > 0; depth++ {
		var next []node
		for _, n := range frontier {
			if n.states.Intersects(f.accept) {
				out = append(out, trace.Trace{Events: append([]event.Event(nil), n.events...)})
				if len(out) >= limit {
					return out
				}
			}
			if depth == maxLen {
				continue
			}
			for _, label := range labelOrder {
				succ := bitset.New(f.numStates)
				n.states.Range(func(s int) bool {
					for _, ti := range f.byFrom[s] {
						t := f.trans[ti]
						if t.Label.String() == label.String() {
							succ.Add(int(t.To))
						}
					}
					return true
				})
				if !succ.Empty() {
					next = append(next, node{states: succ, events: append(append([]event.Event(nil), n.events...), label)})
				}
			}
		}
		frontier = next
	}
	return out
}

func (f *FA) oracleSortedLabels() []event.Event {
	out := append([]event.Event(nil), f.labels...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].String() < out[j-1].String(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
