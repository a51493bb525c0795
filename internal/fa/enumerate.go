package fa

import (
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/trace"
)

// Enumerate returns up to limit accepted traces of length at most maxLen, in
// breadth-first (shortest-first) order with deterministic tie-breaking. It is
// used by tests and by summaries that show sample sentences of a language.
// Wildcard transitions contribute the wildcard label itself, which renders
// as "*()".
func (f *FA) Enumerate(maxLen, limit int) []trace.Trace {
	type node struct {
		states *bitset.Set
		events []event.Event
	}
	var out []trace.Trace
	if limit <= 0 {
		return out
	}
	frontier := []node{{states: f.start.Clone()}}
	labelOrder := f.sortedLabels()
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

// Sample returns a uniformly-random-walk accepted trace of length at most
// maxLen, or ok=false if the walk dies or fails to reach acceptance. Used by
// property tests and the workload generator to draw sentences from a
// specification's language.
func (f *FA) Sample(rng *rand.Rand, maxLen int) (trace.Trace, bool) {
	// States that can reach acceptance, so the walk never strays into
	// dead states.
	live := Coreachable(f)
	starts := []int{}
	f.start.Range(func(s int) bool {
		if live[s] {
			starts = append(starts, s)
		}
		return true
	})
	if len(starts) == 0 {
		return trace.Trace{}, false
	}
	cur := starts[rng.Intn(len(starts))]
	var events []event.Event
	for step := 0; step <= maxLen; step++ {
		canStop := f.accept.Has(cur)
		var outs []int
		for _, ti := range f.byFrom[cur] {
			if live[f.trans[ti].To] && !IsWildcard(f.trans[ti].Label) {
				outs = append(outs, ti)
			}
		}
		if canStop && (len(outs) == 0 || len(events) >= maxLen || rng.Intn(3) == 0) {
			return trace.Trace{Events: events}, true
		}
		if len(outs) == 0 || len(events) >= maxLen {
			return trace.Trace{}, false
		}
		t := f.trans[outs[rng.Intn(len(outs))]]
		events = append(events, t.Label)
		cur = int(t.To)
	}
	return trace.Trace{}, false
}

func (f *FA) sortedLabels() []event.Event {
	out := append([]event.Event(nil), f.labels...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].String() < out[j-1].String(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
