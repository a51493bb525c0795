package strategy

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/cable"
	"repro/internal/concept"
)

// Optimal computes the minimum-cost labeling plan by breadth-first search
// over labeling states. States are sets of already-labeled traces; an
// action inspects a concept whose unlabeled remainder is uniform and labels
// that remainder, costing one inspection plus one labeling. Since every
// productive action costs exactly two operations and unproductive
// inspections never help, the optimum is twice the minimum number of
// labeling steps.
//
// The search is exponential in the worst case; maxStates bounds the
// explored state count (0 means DefaultOptimalBudget). When the budget is
// exceeded — as the paper reports for its four largest specifications,
// where "the program we wrote to evaluate these strategies took too long to
// run" — Optimal returns ok = false.
func Optimal(l *concept.Lattice, ref []cable.Label, maxStates int) (Cost, bool) {
	_, cost, ok := OptimalPlan(l, ref, maxStates)
	return cost, ok
}

// OptimalPlan is Optimal returning a witness: one minimum-length sequence
// of (inspect, label) operations achieving the reference labeling.
//
// The search runs on the strategies' block table. With at most 64 blocks
// and at most 64 concepts, a state's row and mask are one word each and
// the search runs in optimalWord on a pooled wordSlab, so a warm search
// allocates only its table and its plan. Wider lattices keep their states
// in one stateSlab, which allocates only when it doubles.
//
// It skips successors it has already reached. Let cur be reached from p
// by labeling concept a's remainder, and let c < a be a concept whose
// remainder was labelable from p. Then p ∪ E_c was reached from p before
// cur was, so the search expanded it before cur. That expansion reached
// p ∪ E_c ∪ E_a, since a's remainder there is a subset of a labelable
// remainder, so empty or labelable; and had that union been the goal, the
// search would have stopped before reaching cur. So cur ∪ E_c is already
// a state and not the goal, and the search moves on without building,
// hashing or probing it. Each state's mask records the concepts whose
// remainder from it is empty or labelable: a concept whose remainder was
// empty from p has none from cur either, so the skip needs no other test,
// and c's remainder from cur, a subset of its remainder from p, is again
// empty or labelable. Visiting order, goal, plan and state count stay
// those of the search without the skip.
func OptimalPlan(l *concept.Lattice, ref []cable.Label, maxStates int) (Plan, Cost, bool) {
	t, ok := newTable(l, ref)
	if !ok {
		return Plan{}, Cost{}, false
	}
	if maxStates <= 0 {
		maxStates = DefaultOptimalBudget
	}
	if len(ref) == 0 {
		return Plan{}, Cost{}, true
	}
	nc, w := l.Len(), t.w
	if w == 1 && nc <= 64 {
		return t.optimalWord(nc, maxStates)
	}
	s := newStateSlab(w, nc)
	// succ is the successor under construction and mask cur's concepts
	// with an empty or labelable remainder, copied into the slab once cur
	// is expanded.
	scratch := make([]uint64, w+s.mw)
	succ, mask := scratch[:w], scratch[w:]
	for cur := 0; cur < s.len(); cur++ {
		row := s.row(cur)
		// A concept below skip is skipped when parentMask has it.
		var skip int
		var parentMask []uint64
		if cur > 0 {
			skip, parentMask = int(s.via[cur]), s.mask(int(s.parent[cur]))
		}
		clear(mask)
		for ci := range nc {
			bit := uint64(1) << (ci % 64)
			if ci < skip && parentMask[ci/64]&bit != 0 {
				mask[ci/64] |= bit
				continue
			}
			e := t.ext[ci*w:][:w]
			b := firstIn(e, row)
			if b < 0 {
				mask[ci/64] |= bit
				continue
			}
			// The remainder e \ row is labelable iff it lies within the
			// label row of its first block, which only a mixed extent
			// can fail.
			if t.isMixed(ci) {
				lr := t.labelRow(b)
				i := b / 64
				for i < w && e[i]&^row[i]&^lr[i] == 0 {
					i++
				}
				if i < w {
					continue
				}
			}
			mask[ci/64] |= bit
			// missing is non-zero iff the successor leaves a block
			// unlabeled.
			var missing uint64
			for j := range succ {
				succ[j] = row[j] | e[j]
				missing |= succ[j] ^ t.all[j]
			}
			if missing == 0 {
				return s.planTo(&t, cur, Op{Concept: ci, Label: t.label(b)})
			}
			slot, found := s.lookup(succ, hashRow(succ))
			if found {
				continue
			}
			s.add(succ, slot, cur, ci)
			if s.len() > maxStates { // the count includes the start state
				return Plan{}, Cost{}, false
			}
		}
		copy(s.mask(cur), mask)
	}
	// No plan reaches the full labeling: the lattice is not well-formed.
	return Plan{}, Cost{}, false
}

// optimalWord is OptimalPlan's search on a one-word table of nc ≤ 64
// concepts: each state's row and mask are one word, a remainder r is
// labelable iff r&^blockLab[first block of r] == 0, and the concepts a
// state must test are the bits of one word, visited in increasing order.
// Visiting order, skip rule, goal test and budget count are the wide
// search's.
func (t *table) optimalWord(nc, maxStates int) (Plan, Cost, bool) {
	s := wordSlabs.Get().(*wordSlab)
	defer wordSlabs.Put(s)
	s.reset(nc)
	ext, lab, all := t.ext[:nc], t.blockLab, t.all[0]
	every := ^uint64(0) >> (64 - nc)
	for cur := 0; cur < len(s.rows); cur++ {
		row := s.rows[cur]
		// mask collects the concepts whose remainder from cur is empty
		// or labelable; it starts with those below via[cur] that the
		// parent's mask has, which the search skips.
		var mask uint64
		if cur > 0 {
			mask = s.masks[s.parent[cur]] & (1<<s.via[cur] - 1)
		}
		for todo := every &^ mask; todo != 0; todo &= todo - 1 {
			ci := bits.TrailingZeros64(todo)
			r := ext[ci] &^ row
			if r == 0 {
				mask |= 1 << ci
				continue
			}
			b := bits.TrailingZeros64(r)
			if r&^lab[b] != 0 {
				continue
			}
			mask |= 1 << ci
			succ := row | r
			if succ == all {
				return s.planTo(t, cur, Op{Concept: ci, Label: t.label(b)})
			}
			if s.add(succ, cur, ci) && len(s.rows) > maxStates {
				return Plan{}, Cost{}, false
			}
		}
		s.masks = append(s.masks, mask)
	}
	return Plan{}, Cost{}, false
}

// wordSlab holds the states of one single-word Optimal search: rows keeps
// their rows (bit k set iff block k is labeled) in visiting order and is
// also the BFS queue, masks the mask of each expanded state, and parent
// and via, per state, the state it was reached from and the concept whose
// remainder was labeled. seen is an open-addressing table of rows with
// linear probing; an all-zero slot is empty, as in stateSlab, and the
// table stays at most half full.
//
// Searches take their slab from wordSlabs and put it back, so a search
// reuses the buffers of the ones before it instead of allocating and
// zeroing fresh tables at every doubling. The pool, unlike a package
// variable holding a slab, lets the collector reclaim an idle slab.
type wordSlab struct {
	rows   []uint64
	masks  []uint64
	parent []int32
	via    []int32
	seen   []uint64
	shift  uint // 64 - log2(len(seen))
}

var wordSlabs = sync.Pool{New: func() any { return new(wordSlab) }}

// reset empties the slab down to the start state, with a table sized for
// the first level of a search over nc concepts.
func (s *wordSlab) reset(nc int) {
	s.rows = append(s.rows[:0], 0)
	s.masks = s.masks[:0]
	s.parent = append(s.parent[:0], -1)
	s.via = append(s.via[:0], -1)
	slots := 16
	for slots < 4*nc {
		slots *= 2
	}
	s.resize(slots)
}

// add makes row a state reached from parent via concept via unless it
// already is one, and reports whether it was new.
func (s *wordSlab) add(row uint64, parent, via int) bool {
	// The table holds every state but the start; keep it at most half full.
	if 2*len(s.rows) > len(s.seen) {
		s.resize(2 * len(s.seen))
	}
	i := s.slot(row)
	if s.seen[i] == row {
		return false
	}
	s.seen[i] = row
	s.rows = append(s.rows, row)
	s.parent = append(s.parent, int32(parent))
	s.via = append(s.via, int32(via))
	return true
}

// slot returns row's slot in the table, or the empty slot where its probe
// ended.
func (s *wordSlab) slot(row uint64) uint64 {
	mask := uint64(len(s.seen) - 1)
	i := (row * 0x9e3779b97f4a7c15) >> s.shift
	for s.seen[i] != row && s.seen[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// resize empties the table to the given power-of-two slot count, reusing
// the slab's buffer when it is large enough, and places every state but
// the start in it again.
func (s *wordSlab) resize(slots int) {
	if cap(s.seen) < slots {
		s.seen = make([]uint64, slots)
	} else {
		s.seen = s.seen[:slots]
		clear(s.seen)
	}
	s.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	for _, row := range s.rows[1:] {
		s.seen[s.slot(row)] = row
	}
}

// planTo returns the plan that reaches state k and then takes the goal
// op last.
func (s *wordSlab) planTo(t *table, k int, last Op) (Plan, Cost, bool) {
	ops := make([]Op, depth(s.parent, k)+1)
	ops[len(ops)-1] = last
	for i := len(ops) - 2; k > 0; i, k = i-1, int(s.parent[k]) {
		// The blocks k added to its parent are the labeled remainder.
		b := bits.TrailingZeros64(s.rows[k] &^ s.rows[s.parent[k]])
		ops[i] = Op{Concept: int(s.via[k]), Label: t.label(b)}
	}
	return finished(ops)
}

// DefaultOptimalBudget is the default bound on explored labeling states.
const DefaultOptimalBudget = 200000

// stateSlab holds the states of one Optimal search on a table of more
// than 64 blocks or more than 64 concepts, as w-word rows (bit k set iff
// block k is labeled). rows keeps them in visiting order and is
// also the BFS queue; parent and via record, per state, the state it was
// reached from and the index of the concept whose remainder was labeled,
// so only the goal's plan is ever built. Each state's row in rows is
// followed by its mask: mw words with bit c set iff concept c's remainder
// from the state is empty or labelable, written once the state is
// expanded.
//
// seen is an open-addressing table with linear probing whose slots hold
// the rows themselves, so a probe compares words in place. An all-zero
// slot is empty: every successor labels a non-empty remainder, so the
// empty start state is the only all-zero row, and it is never looked up.
// The table stays at most half full; when it would pass that, it doubles
// together with the slab's capacity, so the search allocates once per
// doubling and never per state.
type stateSlab struct {
	w, mw  int
	rows   []uint64 // w row words then mw mask words per state
	parent []int32
	via    []int32
	seen   []uint64
	slots  uint64 // slot count - 1
	shift  uint   // 64 - log2(slot count)
}

// newStateSlab returns a slab holding only the empty start state, with a
// table sized for the first level of a search over the given number of
// concepts.
func newStateSlab(w, concepts int) stateSlab {
	s := stateSlab{w: w, mw: (concepts + 63) / 64}
	slots := 16
	for slots < 4*concepts {
		slots *= 2
	}
	s.resize(slots)
	s.rows = s.rows[:w+s.mw]
	s.parent = append(s.parent, -1)
	s.via = append(s.via, -1)
	return s
}

func (s *stateSlab) len() int { return len(s.parent) }

func (s *stateSlab) row(k int) []uint64 { return s.rows[k*(s.w+s.mw):][:s.w] }

func (s *stateSlab) mask(k int) []uint64 { return s.rows[k*(s.w+s.mw)+s.w:][:s.mw] }

// lookup probes the table for row, whose hashRow is h. It returns row's
// slot and true if row is a state, or else the empty slot where the probe
// ended and false. The caller hashes so that lookup inlines.
func (s *stateSlab) lookup(row []uint64, h uint64) (uint64, bool) {
	for i := h >> s.shift; ; i = (i + 1) & s.slots {
		// One pass over the slot tells row from an empty slot.
		var diff, used uint64
		for j, x := range s.seen[int(i)*s.w:][:s.w] {
			diff |= x ^ row[j]
			used |= x
		}
		if diff == 0 || used == 0 {
			return i, diff == 0
		}
	}
}

// add makes row, which lookup found missing at the empty slot i, a state
// reached from parent via concept index via.
func (s *stateSlab) add(row []uint64, i uint64, parent, via int) {
	// The table holds every state but the start; keep it at most half full.
	if slots := len(s.seen) / s.w; 2*len(s.parent) > slots {
		s.resize(2 * slots)
		i, _ = s.lookup(row, hashRow(row))
	}
	copy(s.seen[int(i)*s.w:], row)
	// resize left room for every state the table may hold.
	k := len(s.rows)
	s.rows = s.rows[:k+s.w+s.mw]
	copy(s.rows[k:], row)
	clear(s.rows[k+s.w:])
	s.parent = append(s.parent, int32(parent))
	s.via = append(s.via, int32(via))
}

// resize rebuilds the table with the given power-of-two slot count and
// grows the slab to hold as many states as the table may.
func (s *stateSlab) resize(slots int) {
	s.seen = make([]uint64, slots*s.w)
	s.slots = uint64(slots - 1)
	s.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	states := slots/2 + 1
	s.rows = slices.Grow(s.rows, states*(s.w+s.mw)-len(s.rows))
	s.parent = slices.Grow(s.parent, states-len(s.parent))
	s.via = slices.Grow(s.via, states-len(s.via))
	for k := 1; k < s.len(); k++ {
		row := s.row(k)
		i, _ := s.lookup(row, hashRow(row))
		copy(s.seen[int(i)*s.w:], row)
	}
}

// planTo returns the plan that reaches state k and then takes the goal
// op last.
func (s *stateSlab) planTo(t *table, k int, last Op) (Plan, Cost, bool) {
	ops := make([]Op, depth(s.parent, k)+1)
	ops[len(ops)-1] = last
	for i := len(ops) - 2; k > 0; i, k = i-1, int(s.parent[k]) {
		// The blocks k added to its parent are the labeled remainder.
		b := firstIn(s.row(k), s.row(int(s.parent[k])))
		ops[i] = Op{Concept: int(s.via[k]), Label: t.label(b)}
	}
	return finished(ops)
}

// depth returns the number of steps from the start state to state k.
func depth(parent []int32, k int) int {
	d := 0
	for ; k > 0; k = int(parent[k]) {
		d++
	}
	return d
}

// finished returns a found plan of the given ops and its cost: one
// inspection and one labeling per op.
func finished(ops []Op) (Plan, Cost, bool) {
	return Plan{Ops: ops}, Cost{Inspections: len(ops), Labelings: len(ops)}, true
}

// firstIn returns the smallest block in row a but not in row b, or -1.
func firstIn(a, b []uint64) int {
	b = b[:len(a)]
	for i := range a {
		if d := a[i] &^ b[i]; d != 0 {
			return i*64 + bits.TrailingZeros64(d)
		}
	}
	return -1
}

// hashRow hashes a row's words multiplicatively (Fibonacci hashing); the
// table indexes by the product's high bits, which depend on every input
// bit.
func hashRow(row []uint64) uint64 {
	var h uint64
	for _, x := range row {
		h = (h ^ x) * 0x9e3779b97f4a7c15
	}
	return h
}
