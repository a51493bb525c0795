// Package strategy implements the labeling strategies of Section 4.2 and
// their cost model, used to regenerate Table 3.
//
// A strategy drives a Cable session from an all-unlabeled state to a given
// reference labeling. Its cost counts Cable operations: inspecting a
// concept and labeling traces. Inspections are counted so that an "optimal"
// strategy cannot peek at every concept for free; a strategy may not label
// a concept it has not just inspected.
//
// All strategies here follow the discipline of the paper's automatic
// strategies: when visiting a concept, they label its unlabeled traces iff
// those traces all carry the same reference label (a strategy never
// mislabels a trace and fixes it later). On lattices that are not
// well-formed for the labeling (internal/wellformed), no such strategy can
// finish, and the strategies report failure.
package strategy

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cable"
	"repro/internal/concept"
)

// Cost tallies Cable operations.
type Cost struct {
	// Inspections counts concept visits.
	Inspections int
	// Labelings counts Label-traces commands.
	Labelings int
}

// Total returns the number of user decisions: inspections plus labelings.
func (c Cost) Total() int { return c.Inspections + c.Labelings }

func (c Cost) String() string {
	return fmt.Sprintf("%d ops (%d inspections + %d labelings)", c.Total(), c.Inspections, c.Labelings)
}

// table is one strategy call's lattice and reference labeling over
// blocks, and every strategy runs on it. A block is the set of objects
// that share a context row, and so an object concept γo, and a reference
// label; a row whose objects carry two labels makes two blocks, which sit
// in the same extents, so a remainder holding both is mixed just as it is
// for the objects. Every extent is a union of blocks, and so is every
// labeling state a strategy reaches, since it labels remainders of
// extents: on block rows a strategy makes the same inspections,
// labelings, draws and plans as on object rows, and Optimal meets the
// same states.
//
// A labeling state is a row of w = ⌈b/64⌉ words over the b blocks (bit k
// set iff block k is labeled); on the paper's lattices b ≤ 26, so a state
// is one word. Concept ci, whose ID is ci, has the extent row
// ext[ci*w:][:w]; labelOf[k] numbers block k's label, whose blocks are the
// row lab[labelOf[k]*w:][:w]; weight[k] counts block k's objects and
// rep[k] is one of them. A strategy asks only two things of a concept:
// whether it is fully labeled (within(extent, row)) and whether its
// remainder extent \ row is labelable, that is non-empty and within the
// label row of its first block.
type table struct {
	w       int
	ref     []cable.Label
	ext     []uint64
	lab     []uint64
	all     []uint64 // every block
	row     []uint64 // a scratch row for one walk
	labelOf []int32
	weight  []int32
	rep     []int32
	// mixed has bit ci set iff concept ci's extent carries more than one
	// label; every non-empty remainder of an unmixed extent is labelable.
	mixed []uint64
	// blockLab, on a one-word table, holds block k's label row at k, so
	// the single-word walk and search test a remainder r with
	// r&^blockLab[first block of r] == 0.
	blockLab []uint64
}

// newTable builds the table. It reports false when ref is not a reference
// labeling of l's objects: one label per object, none of them Unlabeled.
func newTable(l *concept.Lattice, ref []cable.Label) (table, bool) {
	t, _, _, ok := buildTable(l, ref, 0)
	return t, ok
}

// buildTable is newTable carving the table from one int32 slab and one
// word slab, each with spare entries at its end that it returns for the
// caller: RandomMean keeps its candidate lists and draw table there. It
// maps each object's γo to its blocks through a slice indexed by concept
// ID and label number, and sets each extent's block bits from its
// objects.
func buildTable(l *concept.Lattice, ref []cable.Label, spare int) (table, []int32, []uint64, bool) {
	n := len(ref)
	if n != l.Context().NumObjects() || slices.Contains(ref, cable.Unlabeled) {
		return table{}, nil, nil, false
	}
	concepts := l.Concepts()
	nc := len(concepts)
	labels := make([]cable.Label, 0, 2)
	for _, lb := range ref {
		if !slices.Contains(labels, lb) {
			labels = append(labels, lb)
		}
	}
	nl := len(labels)
	// Blocks are numbered in order of their first object; blockOf holds
	// block+1 for each (γo, label) pair, 0 for none.
	ints := make([]int32, 4*n+nc*nl+spare)
	t := table{ref: ref, labelOf: ints[:0:n], weight: ints[n : n : 2*n], rep: ints[2*n : 2*n : 3*n]}
	objBlock, blockOf := ints[3*n:4*n], ints[4*n:4*n+nc*nl]
	for o, lb := range ref {
		k := slices.Index(labels, lb)
		key := l.ObjectConcept(o)*nl + k
		b := blockOf[key] - 1
		if b < 0 {
			b = int32(len(t.labelOf))
			blockOf[key] = b + 1
			t.labelOf = append(t.labelOf, int32(k))
			t.weight = append(t.weight, 0)
			t.rep = append(t.rep, int32(o))
		}
		t.weight[b]++
		objBlock[o] = b
	}
	nb := len(t.labelOf)
	w := (nb + 63) / 64
	t.w = w
	one := 0
	if w == 1 {
		one = nb
	}
	words := make([]uint64, (nc+nl+2)*w+(nc+63)/64+one+spare)
	t.ext, words = words[:nc*w], words[nc*w:]
	t.lab, words = words[:nl*w], words[nl*w:]
	t.all, t.row, words = words[:w], words[w:2*w], words[2*w:]
	t.mixed, words = words[:(nc+63)/64], words[(nc+63)/64:]
	for b, k := range t.labelOf {
		t.lab[int(k)*w+b/64] |= 1 << (b % 64)
		t.all[b/64] |= 1 << (b % 64)
	}
	if w == 1 {
		t.blockLab, words = words[:nb], words[nb:]
		for b, k := range t.labelOf {
			t.blockLab[b] = t.lab[k]
		}
	}
	for ci, c := range concepts {
		e := t.extent(ci)
		for i, x := range c.Extent.Words() {
			for ; x != 0; x &= x - 1 {
				b := objBlock[i*64+bits.TrailingZeros64(x)]
				e[b/64] |= 1 << (b % 64)
			}
		}
		// The scratch row is still empty, so b is e's first block.
		if b := firstIn(e, t.row); b >= 0 && firstIn(e, t.labelRow(b)) >= 0 {
			t.mixed[ci/64] |= 1 << (ci % 64)
		}
	}
	return t, ints[4*n+nc*nl:], words, true
}

func (t *table) extent(ci int) []uint64 { return t.ext[ci*t.w:][:t.w] }

// labelRow returns the blocks sharing block b's reference label.
func (t *table) labelRow(b int) []uint64 { return t.lab[int(t.labelOf[b])*t.w:][:t.w] }

// label returns block b's reference label.
func (t *table) label(b int) cable.Label { return t.ref[t.rep[b]] }

func (t *table) isMixed(ci int) bool { return t.mixed[ci/64]&(1<<(ci%64)) != 0 }

// labelable returns the first block of concept ci's remainder e \ row if
// the remainder is labelable, or -1 if it is empty or mixed.
func (t *table) labelable(ci int, row []uint64) int {
	e := t.extent(ci)
	b := firstIn(e, row)
	if b < 0 || !t.isMixed(ci) {
		return b
	}
	lr := t.labelRow(b)
	for i := b / 64; i < len(e); i++ {
		if e[i]&^row[i]&^lr[i] != 0 {
			return -1
		}
	}
	return b
}

// walk is one run of a deterministic strategy: its labeled row and its
// cost so far.
type walk struct {
	*table
	row  []uint64
	cost Cost
}

// walk starts a walk on the table's scratch row; a table serves one walk.
func (t *table) walk() walk { return walk{table: t, row: t.row} }

// visit inspects concept ci (cost) and labels its remainder if that is
// labelable (cost). It returns the label applied and whether a labeling
// happened.
func (k *walk) visit(ci int) (cable.Label, bool) {
	k.cost.Inspections++
	b := k.labelable(ci, k.row)
	if b < 0 {
		return cable.Unlabeled, false
	}
	k.cost.Labelings++
	orInto(k.row, k.extent(ci))
	return k.label(b), true
}

func (k *walk) fullyLabeled(ci int) bool { return within(k.extent(ci), k.row) }

func (k *walk) done() bool { return within(k.all, k.row) }

// within reports whether row holds every block of e.
func within(e, row []uint64) bool {
	row = row[:len(e)]
	for i, x := range e {
		if x&^row[i] != 0 {
			return false
		}
	}
	return true
}

// orInto sets row to row ∪ e.
func orInto(row, e []uint64) {
	for i, x := range e {
		row[i] |= x
	}
}

// TopDown implements the Top-down strategy: repeated breadth-first
// traversals from the top concept, visiting concepts that still have
// unlabeled traces and labeling whenever the remainder is uniform. It
// fails (ok = false) if a full traversal makes no progress, which happens
// exactly when the lattice is not well-formed for the labeling.
func TopDown(l *concept.Lattice, ref []cable.Label) (Cost, bool) {
	t, ok := newTable(l, ref)
	if !ok {
		return Cost{}, false
	}
	k := t.walk()
	order := l.TopDownOrder()
	for !k.done() {
		progress := false
		for _, id := range order {
			if k.done() {
				break
			}
			if k.fullyLabeled(id) {
				continue
			}
			if _, ok := k.visit(id); ok {
				progress = true
			}
		}
		if !progress {
			return k.cost, false
		}
	}
	return k.cost, true
}

// BottomUp implements the Bottom-up strategy: repeatedly visit a concept
// that is not fully labeled but all of whose children are, and label its
// remainder. On a well-formed lattice the remainder is always uniform. On
// the loop-free specifications of the evaluation this strategy degenerates
// to Baseline: each class of identical traces sits in its own low concept.
func BottomUp(l *concept.Lattice, ref []cable.Label) (Cost, bool) {
	t, ok := newTable(l, ref)
	if !ok {
		return Cost{}, false
	}
	k := t.walk()
	for !k.done() {
		ready := -1
		for ci := range l.Len() {
			if k.fullyLabeled(ci) {
				continue
			}
			allChildrenDone := true
			for _, ch := range l.Children(ci) {
				if !k.fullyLabeled(ch) {
					allChildrenDone = false
					break
				}
			}
			if allChildrenDone {
				ready = ci
				break
			}
		}
		if ready < 0 {
			return k.cost, false
		}
		if _, ok := k.visit(ready); !ok {
			// Mixed remainder: the lattice is not well-formed.
			return k.cost, false
		}
	}
	return k.cost, true
}

// trial is RandomMean's state across its walks: the candidates of the
// all-unlabeled state (the concepts whose extent is not empty, in lattice
// order), the candidate buffer a walk filters, the draw table and the
// cost of the last walk.
type trial struct {
	start, cands []int32
	draws        []uint64
	cost         Cost
}

// newTrial returns the trial for the table's nc concepts, on the spare
// int32s and words (two of each per concept) buildTable left after it.
func (t *table) newTrial(nc int, ints []int32, words []uint64) trial {
	tr := trial{start: ints[:0:nc], cands: ints[nc : nc : 2*nc], draws: words[:2*nc]}
	for ci := range nc {
		if firstIn(t.extent(ci), t.row) >= 0 {
			tr.start = append(tr.start, int32(ci))
		}
	}
	fillDraws(tr.draws)
	return tr
}

// randomTrial runs the Random strategy from the all-unlabeled state: it
// visits uniformly random candidates, labeling when possible, drawing
// from src as rand.Rand.Intn would. It reports false when the walk passes
// maxOps operations.
//
// The labeled row only grows, so a fully labeled concept stays fully
// labeled: filtering the candidates in place after each labeling leaves
// the same list, in lattice order, as rebuilding it before each draw
// would, and so the same draws. The top concept's extent is every block,
// so the walk is done exactly when no candidate is left.
func (t *table) randomTrial(tr *trial, src *trialSource, maxOps int) bool {
	if t.w == 1 {
		return t.randomTrialWord(tr, src, maxOps)
	}
	ext, w, row := t.ext, t.w, t.row
	clear(row)
	cands := append(tr.cands[:0], tr.start...)
	var cost Cost
	for len(cands) > 0 {
		ci := int(cands[src.intn(tr.draws, len(cands))])
		cost.Inspections++
		labeled := t.labelable(ci, row) >= 0
		if labeled {
			cost.Labelings++
			orInto(row, ext[ci*w:][:w])
		}
		if cost.Total() > maxOps {
			tr.cost = cost
			return false
		}
		if labeled {
			kept := cands[:0]
			for _, c := range cands {
				if !within(ext[int(c)*w:][:w], row) {
					kept = append(kept, c)
				}
			}
			cands = kept
		}
	}
	tr.cost = cost
	return true
}

// randomTrialWord is randomTrial on a one-word table, with the labeled
// row in a register. A candidate's remainder r is never empty, and it is
// labelable iff it lies within the label row of its first block.
func (t *table) randomTrialWord(tr *trial, src *trialSource, maxOps int) bool {
	ext, lab, draws := t.ext, t.blockLab, tr.draws
	cands := append(tr.cands[:0], tr.start...)
	var row uint64
	var cost Cost
	for len(cands) > 0 {
		r := ext[cands[src.intn(draws, len(cands))]] &^ row
		cost.Inspections++
		labeled := r&^lab[bits.TrailingZeros64(r)] == 0
		if labeled {
			cost.Labelings++
			row |= r
		}
		if cost.Total() > maxOps {
			tr.cost = cost
			return false
		}
		if labeled {
			// Keep the candidates not fully labeled, without a branch:
			// (x|-x)>>63 is 1 iff x is not 0.
			kept := 0
			for _, c := range cands {
				x := ext[c] &^ row
				cands[kept] = c
				kept += int((x | -x) >> 63)
			}
			cands = cands[:kept]
		}
	}
	tr.cost = cost
	return true
}

// RandomMean runs the Random strategy trials times (the paper uses 1024)
// and returns the arithmetic mean total cost over the trials. Each walk
// is bounded by 1000 × the number of concepts operations, so walks on
// lattices that are not well-formed terminate and report failure. Trial i
// draws from rand.NewSource(seed+i)'s stream; the trials reseed one
// source and share one candidate buffer and one draw table, carved with
// the table from its two slabs.
func RandomMean(l *concept.Lattice, ref []cable.Label, seed int64, trials int) (float64, bool) {
	if trials <= 0 {
		return 0, false
	}
	t, ints, words, ok := buildTable(l, ref, 2*l.Len())
	if !ok {
		return 0, false
	}
	tr := t.newTrial(l.Len(), ints, words)
	src := new(trialSource)
	maxOps := 1000 * l.Len()
	sum := 0
	for i := 0; i < trials; i++ {
		src.Seed(seed + int64(i))
		if !t.randomTrial(&tr, src, maxOps) {
			return 0, false
		}
		sum += tr.cost.Total()
	}
	return float64(sum) / float64(trials), true
}

// Baseline implements the non-Cable baseline: inspect and label each class
// of identical traces separately, costing two operations per class (the
// objects of these lattices are already one-per-class).
func Baseline(l *concept.Lattice) Cost {
	n := l.Context().NumObjects()
	return Cost{Inspections: n, Labelings: n}
}

// Expert simulates the expert user of Section 5.3: a mostly top-down
// navigator who knows which concepts are worth labeling (directed by
// "interesting" transitions). Each step greedily labels the concept
// covering the most unlabeled traces among those whose remainders are
// uniform; a final verification inspection of the good traces at the top
// concept (Step 2b) is charged at the end. It fails on lattices that are
// not well-formed. ExpertPlan returns the same cost with the steps.
func Expert(l *concept.Lattice, ref []cable.Label) (Cost, bool) {
	_, cost, ok := ExpertPlan(l, ref)
	return cost, ok
}
