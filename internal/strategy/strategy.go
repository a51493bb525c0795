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

// table is one strategy call's lattice and reference labeling as rows of
// w = ⌈n/64⌉ words over the n objects, and every strategy runs on it: a
// labeling state is one such row (bit o set iff object o is labeled).
// Concept ci, whose ID is ci, has the extent row ext[ci*w:][:w]; labelOf[o]
// numbers object o's reference label, and label k's objects are the row
// lab[k*w:][:w]. A strategy asks only two things of a concept: whether it
// is fully labeled (within(extent, row)) and whether its remainder
// extent \ row is labelable, that is non-empty and within the label row of
// its first object.
type table struct {
	w       int
	ref     []cable.Label
	ext     []uint64
	lab     []uint64
	labelOf []int32
	all     []uint64 // every object
	// mixed[ci] reports whether concept ci's extent carries more than one
	// label; every non-empty remainder of an unmixed extent is labelable.
	mixed []bool
}

// newTable builds the table, reading each extent's words once. It reports
// false when ref is not a reference labeling of l's objects: one label per
// object, none of them Unlabeled.
func newTable(l *concept.Lattice, ref []cable.Label) (table, bool) {
	n := len(ref)
	if n != l.Context().NumObjects() || slices.Contains(ref, cable.Unlabeled) {
		return table{}, false
	}
	concepts := l.Concepts()
	w := (n + 63) / 64
	labels := make([]cable.Label, 0, 2)
	labelOf := make([]int32, n)
	for o, lb := range ref {
		k := slices.Index(labels, lb)
		if k < 0 {
			k = len(labels)
			labels = append(labels, lb)
		}
		labelOf[o] = int32(k)
	}
	words := make([]uint64, (len(concepts)+len(labels)+1)*w)
	t := table{
		w: w, ref: ref, labelOf: labelOf,
		ext:   words[:len(concepts)*w],
		lab:   words[len(concepts)*w : (len(concepts)+len(labels))*w],
		all:   words[(len(concepts)+len(labels))*w:],
		mixed: make([]bool, len(concepts)),
	}
	for o, k := range labelOf {
		t.lab[int(k)*w+o/64] |= 1 << (o % 64)
		t.all[o/64] |= 1 << (o % 64)
	}
	for ci, c := range concepts {
		e := t.extent(ci)
		copy(e, c.Extent.Words())
		for i, x := range e {
			if x != 0 {
				o := i*64 + bits.TrailingZeros64(x)
				t.mixed[ci] = firstIn(e, t.labelRow(o)) >= 0
				break
			}
		}
	}
	return t, true
}

func (t *table) extent(ci int) []uint64 { return t.ext[ci*t.w:][:t.w] }

// labelRow returns the objects sharing object o's reference label.
func (t *table) labelRow(o int) []uint64 { return t.lab[int(t.labelOf[o])*t.w:][:t.w] }

// labelable returns the first object of concept ci's remainder e \ row if
// the remainder is labelable, or -1 if it is empty or mixed.
func (t *table) labelable(ci int, row []uint64) int {
	e := t.extent(ci)
	o := firstIn(e, row)
	if o < 0 || !t.mixed[ci] {
		return o
	}
	lr := t.labelRow(o)
	for i := o / 64; i < len(e); i++ {
		if e[i]&^row[i]&^lr[i] != 0 {
			return -1
		}
	}
	return o
}

// walk is one run of a deterministic strategy: its labeled row and its
// cost so far.
type walk struct {
	*table
	row  []uint64
	cost Cost
}

func (t *table) walk() walk { return walk{table: t, row: make([]uint64, t.w)} }

// visit inspects concept ci (cost) and labels its remainder if that is
// labelable (cost). It returns the label applied and whether a labeling
// happened.
func (k *walk) visit(ci int) (cable.Label, bool) {
	k.cost.Inspections++
	o := k.labelable(ci, k.row)
	if o < 0 {
		return cable.Unlabeled, false
	}
	k.cost.Labelings++
	orInto(k.row, k.extent(ci))
	return k.ref[o], true
}

func (k *walk) fullyLabeled(ci int) bool { return within(k.extent(ci), k.row) }

func (k *walk) done() bool { return within(k.all, k.row) }

// within reports whether row holds every object of e.
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

// trial is one Random walk: the labeled row, the candidates (the concepts
// not fully labeled, in lattice order) and the cost so far.
type trial struct {
	row   []uint64
	cands []int32
	cost  Cost
}

// newTrial returns an empty trial and the candidates of the all-unlabeled
// state: the concepts whose extent is not empty.
func (t *table) newTrial() (trial, []int32) {
	tr := trial{row: make([]uint64, t.w), cands: make([]int32, 0, len(t.mixed))}
	start := make([]int32, 0, len(t.mixed))
	for ci := range t.mixed {
		if !within(t.extent(ci), tr.row) {
			start = append(start, int32(ci))
		}
	}
	return tr, start
}

// randomTrial runs the Random strategy from the all-unlabeled state, whose
// candidates are start: it visits uniformly random candidates, labeling
// when possible, drawing from src as rand.Rand.Intn would. It reports
// false when the walk passes maxOps operations.
//
// The labeled row only grows, so a fully labeled concept stays fully
// labeled: filtering the candidates in place after each labeling leaves
// the same list, in lattice order, as rebuilding it before each draw
// would, and so the same draws. The top concept's extent is every object,
// so the walk is done exactly when no candidate is left.
func (t *table) randomTrial(tr *trial, start []int32, src *trialSource, maxOps int) bool {
	ext, w, row := t.ext, t.w, tr.row
	clear(row)
	cands := append(tr.cands[:0], start...)
	var cost Cost
	for len(cands) > 0 {
		ci := int(cands[src.intn(len(cands))])
		cost.Inspections++
		labeled := t.labelable(ci, row) >= 0
		if labeled {
			cost.Labelings++
			orInto(row, ext[ci*w:][:w])
		}
		if cost.Total() > maxOps {
			tr.cands, tr.cost = cands, cost
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
	tr.cands, tr.cost = cands, cost
	return true
}

// RandomMean runs the Random strategy trials times (the paper uses 1024)
// and returns the arithmetic mean total cost over the trials. Each walk
// is bounded by 1000 × the number of concepts operations, so walks on
// lattices that are not well-formed terminate and report failure. Trial i
// draws from rand.NewSource(seed+i)'s stream; the trials reseed one
// source and reuse one row and candidate buffer.
func RandomMean(l *concept.Lattice, ref []cable.Label, seed int64, trials int) (float64, bool) {
	if trials <= 0 {
		return 0, false
	}
	t, ok := newTable(l, ref)
	if !ok {
		return 0, false
	}
	tr, start := t.newTrial()
	src := new(trialSource)
	maxOps := 1000 * l.Len()
	sum := 0
	for i := 0; i < trials; i++ {
		src.Seed(seed + int64(i))
		if !t.randomTrial(&tr, start, src, maxOps) {
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
