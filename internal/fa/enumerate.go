package fa

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/event"
	"repro/internal/trace"
)

// Enumerate returns up to limit accepted traces of length at most maxLen, in
// breadth-first (shortest-first) order, the traces of one length in
// lexicographic order with labels compared by rendering. Tests use it, and
// so do exp.EndToEnd, which samples a correct specification's language,
// and verify.Static, which lists the shortest violating behaviours.
// Wildcard transitions contribute the wildcard label itself, which renders
// as "*()".
//
// A frontier node is a row of ⌈n/64⌉ words over the n states, held with
// the rest of its depth in one slab; each node's parent and label live in
// int32 slices, and a trace's events are built from those links only when
// it is emitted.
func (f *FA) Enumerate(maxLen, limit int) []trace.Trace {
	var out []trace.Trace
	if limit <= 0 {
		return out
	}
	labels, succ := f.enumTables()
	words := (f.numStates + 63) / 64
	accept := f.accept.Words()
	// The frontier is nodes first..first+count-1; row j of cur holds node
	// first+j's states. The root has no parent and no label.
	parent, label := []int32{-1}, []int32{-1}
	cur, next := make([]uint64, words), []uint64(nil)
	copy(cur, f.start.Words())
	empty := make([]uint64, words) // a child's row before its targets
	first, count := int32(0), int32(1)
	var states, touched []int32
	mark := make([]int32, len(labels)) // 1 + the node that last saw the label
	slot := make([]int32, len(labels)) // that node's child row for the label
	for depth := 0; depth <= maxLen && count > 0; depth++ {
		next = next[:0]
		nextFirst := int32(len(parent))
		for id := first; id < first+count; id++ {
			row := cur[int(id-first)*words:][:words]
			if intersectsWords(row, accept) {
				out = append(out, trace.Trace{Events: pathEvents(id, depth, parent, label, labels)})
				if len(out) >= limit {
					return out
				}
			}
			if depth == maxLen {
				continue
			}
			// The node's children, one per label leaving its states, take
			// the next rows in label order.
			states = appendWordElems(states[:0], row)
			touched = touched[:0]
			for _, s := range states {
				for _, g := range succ.of(s) {
					if mark[g.label] != id+1 {
						mark[g.label] = id + 1
						touched = append(touched, g.label)
					}
				}
			}
			slices.Sort(touched)
			for _, l := range touched {
				slot[l] = int32(len(parent)) - nextFirst
				parent = append(parent, id)
				label = append(label, l)
				next = append(next, empty...)
			}
			for _, s := range states {
				for _, g := range succ.of(s) {
					child := next[int(slot[g.label])*words:]
					for _, t := range succ.targets[g.lo:g.hi] {
						child[t>>6] |= 1 << (t & 63)
					}
				}
			}
		}
		cur, next = next, cur
		first, count = nextFirst, int32(len(parent))-nextFirst
	}
	return out
}

// succLists holds an automaton's transitions grouped by source state and
// label: state s's groups are groups[start[s]:start[s+1]], one per label
// leaving s, in label order.
type succLists struct {
	start   []int32
	groups  []succGroup
	targets []int32
}

// succGroup is the label of a state's transitions and the range of
// succLists.targets holding their targets.
type succGroup struct{ label, lo, hi int32 }

func (sl *succLists) of(s int32) []succGroup { return sl.groups[sl.start[s]:sl.start[s+1]] }

// enumTables returns the automaton's labels sorted by rendering and its
// transitions grouped by source state and label, each label numbered by
// its position in that order.
func (f *FA) enumTables() ([]event.Event, succLists) {
	render := make([]string, len(f.labels))
	for key, id := range f.labelIdx {
		render[id] = key
	}
	byRender := make([]int32, len(f.labels))
	for i := range byRender {
		byRender[i] = int32(i)
	}
	slices.SortFunc(byRender, func(a, b int32) int { return strings.Compare(render[a], render[b]) })
	labels := make([]event.Event, len(f.labels))
	rank := make([]int32, len(f.labels))
	for r, id := range byRender {
		labels[r] = f.labels[id]
		rank[id] = int32(r)
	}
	sl := succLists{
		start:   make([]int32, f.numStates+1),
		targets: make([]int32, 0, len(f.trans)),
	}
	var from []int
	byLabel := func(a, b int) int { return cmp.Compare(rank[f.labelOf[a]], rank[f.labelOf[b]]) }
	for s := range f.numStates {
		sl.start[s] = int32(len(sl.groups))
		from = append(from[:0], f.byFrom[s]...)
		slices.SortFunc(from, byLabel)
		for i := 0; i < len(from); {
			g := succGroup{label: rank[f.labelOf[from[i]]], lo: int32(len(sl.targets))}
			for ; i < len(from) && rank[f.labelOf[from[i]]] == g.label; i++ {
				sl.targets = append(sl.targets, int32(f.trans[from[i]].To))
			}
			g.hi = int32(len(sl.targets))
			sl.groups = append(sl.groups, g)
		}
	}
	sl.start[f.numStates] = int32(len(sl.groups))
	return labels, sl
}

// pathEvents returns the labels on the path from the root to node id, at
// the given depth, or nil at the root.
func pathEvents(id int32, depth int, parent, label []int32, labels []event.Event) []event.Event {
	if depth == 0 {
		return nil
	}
	events := make([]event.Event, depth)
	for i := depth - 1; i >= 0; i-- {
		events[i] = labels[label[id]]
		id = parent[id]
	}
	return events
}

// intersectsWords reports whether two word rows share a bit.
func intersectsWords(a, b []uint64) bool {
	for i := range min(len(a), len(b)) {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// appendWordElems appends the elements of a word row to dst in
// increasing order.
func appendWordElems(dst []int32, row []uint64) []int32 {
	for w, word := range row {
		for word != 0 {
			dst = append(dst, int32(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
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
