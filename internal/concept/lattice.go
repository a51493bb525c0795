package concept

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/bitset"
	"repro/internal/obs"
)

// Concept is a node of the concept lattice: a maximal rectangle (X, Y) of
// the context with X = τ(Y) and Y = σ(X).
type Concept struct {
	// ID is the concept's index within its lattice.
	ID int
	// Extent is the object set X.
	Extent *bitset.Set
	// Intent is the attribute set Y.
	Intent *bitset.Set
}

// Lattice is the complete lattice of all concepts of a context, with cover
// (Hasse-diagram) edges. Concept 0 is not necessarily the top; use Top and
// Bottom.
type Lattice struct {
	ctx      *Context
	concepts []*Concept
	parents  [][]int // cover edges upward (larger extents)
	children [][]int // cover edges downward (smaller extents)
	top      int
	bottom   int

	// idx maps intents to concept IDs by hashing bitset words directly; it
	// backs byIntent so Meet, Join, and Find are hash lookups instead of
	// linear scans, with no key-byte materialization.
	idx intentIndex
	// objConcept[o] is γo (ObjectConcept), attrConcept[a] is μa
	// (AttributeConcept), both precomputed once per lattice.
	objConcept  []int
	attrConcept []int

	// arena backs the extent/intent bitsets of a Build-constructed lattice.
	// The reference pins the slabs for the lattice's lifetime; arena-backed
	// sets must not outlive the lattice (see bitset.Arena and the cablevet
	// poolarena check).
	arena *bitset.Arena

	// reps holds one representative object per distinct context row, the
	// first object with that row (the dedup the cover generator's row path
	// relies on), repped the IDs of the object concepts they represent, and
	// attrReps[a] the positions in reps of the reps whose row holds
	// attribute a. extendTables keeps all three current (addRep); a clone
	// leaves them nil, and its first add rebuilds them from the γ table
	// (repsEnsure).
	reps     []int32
	repped   *bitset.Set
	attrReps []bitset.Set

	// inv is the per-attribute inverted concept index the pruned Godin scan
	// intersects against. BuildCtx drops the one it builds with, so a
	// lattice that is only read does not hold it; the first add rebuilds
	// it (invEnsure) and later adds keep it current.
	inv *invIndex
	// hdr is the current concept-header slab chunk (see newConcept).
	hdr []Concept
	// godin is insert's scratch, kept across incremental adds; a build
	// drops its own, like inv.
	godin *godinScratch
}

// hdrChunk is the most concept headers a header slab holds.
const hdrChunk = 256

// newConcept appends a concept with the next ID, indexing its intent in idx
// and (when maintained) the inverted attribute index. Headers come from
// chunked slabs: one allocation per chunk of concepts, not per concept.
// Each chunk doubles the one before it, up to hdrChunk headers, so a small
// lattice that outgrows its first chunk does not pin a 6 KiB one.
func (l *Lattice) newConcept(extent, intent *bitset.Set) *Concept {
	if len(l.hdr) == cap(l.hdr) {
		size := hdrChunk
		if c := cap(l.hdr); c > 0 {
			size = min(2*c, hdrChunk)
		}
		l.hdr = make([]Concept, 0, size)
	}
	l.hdr = l.hdr[:len(l.hdr)+1]
	c := &l.hdr[len(l.hdr)-1]
	*c = Concept{ID: len(l.concepts), Extent: extent, Intent: intent}
	l.concepts = append(l.concepts, c)
	l.idx.insert(l.concepts, c.ID)
	if l.inv != nil {
		l.inv.register(c)
	}
	return c
}

// BuildOption is accepted and ignored by BuildCtx.
//
// Deprecated: builds take no options.
type BuildOption struct{}

// WithWorkers returns a BuildOption. n is ignored: builds are serial.
//
// Deprecated: omit it.
func WithWorkers(n int) BuildOption { return BuildOption{} }

// Build constructs the concept lattice of a context by incremental object
// insertion in the style of Godin et al.'s Algorithm 1: objects are added
// one at a time, and each novel intersection of the new object's row with
// an existing intent spawns a new concept, whose extent is τ of its intent
// over the whole context. The query tables and cover edges follow the
// loop, through the same step (insert) that AddObjectCtx runs for one
// appended object. It is BuildCtx without cancellation.
func Build(ctx *Context) *Lattice {
	l, err := BuildCtx(context.Background(), ctx)
	if err != nil {
		// Background is never done, so BuildCtx cannot fail.
		panic("concept: Build: " + err.Error())
	}
	return l
}

// BuildCtx is Build with cancellation for callers serving remote requests:
// the done state of cc is checked between object insertions and between
// strides of the cover-linking scan, so a cancelled build of a large
// lattice returns cc.Err() promptly instead of running to completion.
//
// All extent and intent storage is carved from one per-build arena, so a
// build performs O(1) heap allocations for set storage regardless of
// concept count; the arena is owned by (and dies with) the returned
// Lattice. The options are ignored (see BuildOption).
func BuildCtx(cc context.Context, ctx *Context, _ ...BuildOption) (*Lattice, error) {
	sp := obs.StartSpan("lattice.build")
	defer sp.End()
	l := newGodinLattice(ctx)
	if err := l.insert(cc, 0, 0); err != nil {
		return nil, err
	}
	l.inv, l.godin = nil, nil // see Lattice.inv
	obs.Observe("lattice.concepts", int64(len(l.concepts)))
	return l, nil
}

// extendTables extends the ObjectConcept and AttributeConcept tables, and
// the top, over the objects first.., whose rows the concept set already
// closes. γo is the concept whose intent is row(o). The top's intent is σ
// of every object, the attributes all rows share, and μa's is σ(τ({a})),
// which o joins when a is in its row: each shrinks to the concept whose
// intent is its old intent ∩ row(o), a closed intent one index probe
// finds. Earlier objects keep their γ entries: concept IDs never change,
// intents are immutable, and old rows are untouched. A build starts the
// tables at the seed, concept 0, which is the top, the bottom and every
// μa of a context with no objects. An object whose row no earlier object
// has becomes its row's rep (addRep); a repeated row leaves the top and
// every μa as they are, since their intents already lie within it.
func (l *Lattice) extendTables(first int) {
	sp := obs.StartSpan("lattice.tables")
	defer sp.End()
	if first == 0 {
		l.objConcept = make([]int, 0, l.ctx.NumObjects())
		l.attrConcept = make([]int, l.ctx.NumAttributes())
		l.top, l.bottom = 0, 0
	}
	l.repsEnsure()
	g := l.scratch()
	for o := first; o < l.ctx.NumObjects(); o++ {
		row := l.ctx.Attributes(o)
		l.objConcept = append(l.objConcept, l.meetRow(l.bottom, row, g))
		if !l.addRep(o) {
			continue
		}
		l.top = l.meetRow(l.top, row, g)
		row.Range(func(a int) bool {
			l.attrConcept[a] = l.meetRow(l.attrConcept[a], row, g)
			return true
		})
	}
}

// meetRow returns the concept whose intent is intent(id) ∩ row, where row
// is an object's row: an intersection of intents, so a closed one.
func (l *Lattice) meetRow(id int, row *bitset.Set, g *godinScratch) int {
	if g.words != nil {
		yw := g.words[id]
		iw := yw & word0(row)
		if iw == yw {
			return id
		}
		id = l.idx.lookupWord(g.words, iw)
	} else {
		if bitset.IntersectEqualsInto(&g.inter, l.concepts[id].Intent, row) {
			return id
		}
		id = l.idx.lookup(l.concepts, &g.inter)
	}
	if id < 0 {
		panic("concept: intent ∩ row is not a closed intent")
	}
	return id
}

// linkChunk is the number of concepts the cover-linking scan handles
// between cancellation checks.
const linkChunk = 64

// link gives every concept born since old its cover edges: c is a child
// of d iff extent(c) ⊂ extent(d) with no concept strictly between. With
// old = 0 that is the whole Hasse diagram; with old > 0 the concepts from
// old on must be those one row's insertion spawned.
//
// Each new concept's upper covers are found through the intent index
// rather than by scanning all concepts: coverGen collects a candidate set
// of concepts strictly above it that contains every cover — its closed
// proper sub-intents or its closures with one object per distinct row,
// whichever takes fewer index probes — and minimalCovers keeps the
// candidates minimal by extent inclusion, testing one extent-size layer at
// a time against the covers already accepted from smaller layers, on
// intents, which span the attribute universe rather than the (much wider)
// object universe. A concept with intent Y costs at most min(2^|Y|−1,
// distinct rows) probes plus a few subset tests among candidates, versus
// the all-pairs-plus-dominated scan (cubic in concept count) this
// replaces.
//
// The old concepts keep their edges but for the generator rule. The
// generator of a new concept n is the old concept g with the largest
// extent whose intent strictly contains intent(n): extent(g) =
// τ(intent(n)) over the old objects, so intent(g) is the old closure of
// intent(n), the smallest old intent containing it, and the bottom always
// qualifies. The add never modified g (intent(g) ⊆ row would make
// intent(n) an old intent), distinct new concepts have distinct
// generators, and every old concept c below n has extent(c) ⊆ extent(g),
// so c sits at or below g. Hence an old concept that generates nothing
// keeps its parents (g lies strictly between it and any new n above it),
// and g gains n as a cover and loses exactly its old covers above n.
// Extent inclusion among old concepts is preserved by the add (if
// intent(d) ⊆ intent(c) and c gains o then intent(d) ⊆ row, so d gains o
// too), so an add that spawns nothing changes no edge.
//
// The new concepts' parent lists share one slab and their child lists
// another, each list ascending by ID; an old parent takes a new child in
// place.
func (l *Lattice) link(cc context.Context, old int) error {
	n := len(l.concepts)
	if n == old {
		return nil // an add that spawns nothing changes no edge
	}
	sp := obs.StartSpan("lattice.link_covers")
	defer sp.End()
	g := l.scratch()
	words := g.words
	sizes := grow(g.sizes, n)
	g.sizes = sizes
	for ci := old; ci < n; ci++ {
		sizes[ci] = int32(l.concepts[ci].Extent.Len())
	}
	cover := &g.cover
	cover.l, cover.words = l, words
	cover.emptyID = l.lookupIntent(&bitset.Set{}, words)
	cover.subsetProbes, cover.repProbes = 0, 0
	if cover.cand == nil {
		// The sub-intent path runs only when it has fewer subsets to probe
		// than there are reps; the row path finds at most one candidate per
		// rep, plus ∅.
		cover.cand = make([]int32, 0, len(l.reps)+1)
	}

	// covers holds the new concepts' covers back to back, about four per
	// concept on the shipped corpora: concept old+i's are
	// covers[ends[i-1]:ends[i]].
	covers := grow(g.covers[:0], 4*(n-old))[:0]
	ends := grow(g.ends[:0], n-old)
	done := cc.Done()
	var layers, cands int64
	for ci := old; ci < n; ci++ {
		if (ci-old)%linkChunk == 0 {
			select {
			case <-done:
				return cc.Err()
			default:
			}
		}
		cand := cover.next(ci)
		for _, id := range cand {
			if int(id) < old {
				// The add may have grown an old extent.
				sizes[id] = int32(l.concepts[id].Extent.Len())
			}
		}
		covers = l.minimalCovers(covers, cand, sizes, words)
		ends[ci-old] = int32(len(covers))
		cands += int64(len(cand))
		if len(cand) > 0 {
			layers++
			for i := 1; i < len(cand); i++ {
				if sizes[cand[i]] != sizes[cand[i-1]] {
					layers++
				}
			}
		}
	}
	g.covers, g.ends = covers, ends
	obs.Count("lattice.linkcovers.layers", layers)
	obs.Count("lattice.linkcovers.candidates", cands)
	obs.Count("lattice.linkcovers.subset_probes", cover.subsetProbes)
	obs.Count("lattice.linkcovers.rep_probes", cover.repProbes)

	// Each new concept's covers re-sorted ascending by ID into one parent
	// slab.
	l.parents, l.children = grow(l.parents, n), grow(l.children, n)
	parentSlab := make([]int, len(covers))
	start := 0
	for i, end := range ends {
		p := parentSlab[start:start:end]
		for _, cj := range covers[start:end] {
			p = append(p, int(cj))
		}
		insertionSortInts(p)
		l.parents[old+i] = p
		start = int(end)
	}

	// The new concepts' child lists, sized by a counting pass: each has its
	// generator (old > 0) and the new concepts it covers.
	counts := grow(g.counts[:0], n-old)
	g.counts = counts
	total := 0
	for ci := old; ci < n; ci++ {
		if old > 0 {
			counts[ci-old]++
			total++
		}
		for _, p := range l.parents[ci] {
			if p >= old {
				counts[p-old]++
				total++
			}
		}
	}
	childSlab := make([]int, total)
	pos := 0
	for i, cnt := range counts {
		l.children[old+i] = childSlab[pos : pos : pos+int(cnt)]
		pos += int(cnt)
	}

	// Generators come first in their child lists: they are old, and so
	// below every new ID.
	for ci := old; old > 0 && ci < n; ci++ {
		gen := -1
		for cj := 0; cj < old; cj++ {
			if l.intentSubset(words, int32(ci), int32(cj)) &&
				(gen < 0 || l.intentSubset(words, int32(cj), int32(gen))) {
				gen = cj
			}
		}
		kept := l.parents[gen][:0]
		for _, p := range l.parents[gen] {
			if l.intentSubset(words, int32(p), int32(ci)) {
				l.children[p] = removeSortedInt(l.children[p], gen)
				continue
			}
			kept = append(kept, p)
		}
		l.parents[gen] = insertSortedInt(kept, ci)
		l.children[ci] = append(l.children[ci], gen)
	}
	for ci := old; ci < n; ci++ {
		for _, p := range l.parents[ci] {
			if p >= old {
				l.children[p] = append(l.children[p], ci)
			} else {
				l.children[p] = insertSortedInt(l.children[p], ci)
			}
		}
	}
	return nil
}

// grow returns s extended to length n, its new elements zero. Short of
// capacity it moves s to an array with half as much again, so a table that
// grows a few entries per add reallocates O(log n) times; it spares the
// temporary slice append(s, make([]T, k)...) allocates under the race
// detector.
func grow[T any](s []T, n int) []T {
	if n > cap(s) {
		t := make([]T, n, max(n, cap(s)+cap(s)/2))
		copy(t, s)
		return t
	}
	m := len(s)
	s = s[:n]
	clear(s[m:])
	return s
}

// coverGen collects cover candidates one concept at a time: a deduplicated
// list of concepts strictly above the concept that contains all of its
// upper covers, which minimalCovers reduces to exactly the covers. link
// keeps one in insert's scratch.
//
// A concept c = (X, Y) has two such lists, and next takes whichever costs
// fewer intent-index probes:
//
//   - Sub-intents (one-word universes only): every proper subset of Y
//     that is a closed intent, 2^|Y|−1 probes. A concept lies strictly
//     above c iff its intent is a proper subset of Y, so the hits are
//     exactly the concepts above c, each found once.
//   - Row closures: σ(X ∪ {o}) = Y ∩ row(o) for each representative o ∉ X
//     of a distinct context row, at most one probe per representative.
//     Each is a closed intent strictly above c, and every concept d
//     strictly above c has some o ∉ X in its extent, so d lies at or above
//     the closure for o's representative, which has o's row.
//
// Traces execute few of their FA's transitions, so on trace corpora the
// sub-intents are the cheaper list for every concept but the bottom. Row
// closures stay for large intents (the bottom, dense and contranominal
// contexts) and for universes over 64 attributes, whose intents are not
// one word.
type coverGen struct {
	l *Lattice
	// words is the flat per-concept intent-word table on one-word
	// universes and nil above them.
	words []uint64
	// emptyID is the ∅-intent concept, or -1. The row path visits only
	// the reps in the union of l.attrReps over the intent: every rep
	// outside it closes to ∅ (and so lies outside the extent), and all of
	// those name one candidate, emptyID, which exists whenever any of them
	// does (intersections of closed intents are closed).
	emptyID int

	cand    []int32
	seen    []int32 // seen[id] == gen marks id as a row-closure candidate of the current concept
	gen     int32
	mask    bitset.Set // union of attrReps over the current intent
	scratch bitset.Set // closure scratch on the Set path

	// subsetProbes and repProbes count the index probes of each path.
	subsetProbes, repProbes int64
}

// next returns the cover candidates of concept ci in no particular order;
// the slice is reused by the next call.
func (g *coverGen) next(ci int) []int32 {
	l := g.l
	c := l.concepts[ci]
	g.cand = g.cand[:0]
	if c.Extent.Len() == l.ctx.NumObjects() {
		// The top has nothing above it. This also keeps an empty intent off
		// the sub-intent path, where probing ∅ would find c itself.
		return g.cand
	}
	if g.words != nil {
		// The sub-intents cost 2^|Y|−1 probes, the rows at most one per
		// rep. The guard keeps a 64-attribute intent from overflowing the
		// shift to 0.
		yw := g.words[ci]
		if pc := bits.OnesCount64(yw); pc < 64 && uint64(1)<<pc-1 < uint64(len(l.reps)) {
			for s := (yw - 1) & yw; ; s = (s - 1) & yw {
				if id := l.idx.lookupWord(g.words, s); id >= 0 {
					g.cand = append(g.cand, int32(id))
				}
				if s == 0 {
					break
				}
			}
			g.subsetProbes += 1<<pc - 1
			return g.cand
		}
	}
	if len(g.seen) < len(l.concepts) {
		g.seen = append(g.seen, make([]int32, len(l.concepts)-len(g.seen))...)
	}
	g.gen++
	if g.gen == 0 { // stamp wrapped: reset and restart generations
		clear(g.seen)
		g.gen = 1
	}
	g.mask.Clear()
	c.Intent.Range(func(a int) bool {
		g.mask.UnionWith(&l.attrReps[a])
		return true
	})
	g.mask.Range(func(k int) bool {
		g.probeRep(c, k)
		return true
	})
	if g.mask.Len() < len(l.reps) {
		// In-mask reps never produce ∅: their closures keep a shared
		// attribute.
		if g.emptyID < 0 {
			panic("concept: closure missing from intent index")
		}
		g.cand = append(g.cand, int32(g.emptyID))
	}
	return g.cand
}

// probeRep adds the closure of c with rep k to the candidates, unless the
// rep lies in c's extent.
func (g *coverGen) probeRep(c *Concept, k int) {
	l := g.l
	o := int(l.reps[k])
	if c.Extent.Has(o) {
		return
	}
	var id int
	if g.words != nil {
		id = l.idx.lookupWord(g.words, g.words[c.ID]&word0(l.ctx.Attributes(o)))
	} else {
		bitset.IntersectInto(&g.scratch, c.Intent, l.ctx.Attributes(o))
		id = l.idx.lookup(l.concepts, &g.scratch)
	}
	if id < 0 {
		panic("concept: closure missing from intent index")
	}
	g.repProbes++
	if g.seen[id] != g.gen {
		g.seen[id] = g.gen
		g.cand = append(g.cand, int32(id))
	}
}

// minimalCovers appends to dst the upper covers of one concept among its
// candidate upper bounds cand, and returns the extended slice. It sorts cand
// in place by (extent size, ID) — a linear extension of the lattice order,
// ID-tiebroken for determinism (the total order also erases any difference
// in how callers collected the candidates) — and keeps each candidate that
// no earlier-kept one lies below, which leaves exactly the minimal
// candidates. Insertion sort for the short lists that dominate,
// slices.SortFunc above the cutoff.
//
// Domination is tested on intents: extent(k) ⊆ extent(j) ⇔ intent(j) ⊆
// intent(k), and intents span the attribute universe instead of the object
// universe. sizes holds the extent size of every candidate; words is the
// flat intent-word table on one-word universes (≤64 attributes), where a
// test is one AND-NOT, and nil above, where it is Set.SubsetOf.
func (l *Lattice) minimalCovers(dst, cand, sizes []int32, words []uint64) []int32 {
	if len(cand) <= insertionSortCutoff {
		for i := 1; i < len(cand); i++ {
			for j := i; j > 0 && bySizeID(sizes, cand[j], cand[j-1]) < 0; j-- {
				cand[j], cand[j-1] = cand[j-1], cand[j]
			}
		}
	} else {
		slices.SortFunc(cand, func(a, b int32) int { return bySizeID(sizes, a, b) })
	}
	start := len(dst)
	for _, cj := range cand {
		dominated := false
		for _, k := range dst[start:] {
			if l.intentSubset(words, cj, k) {
				dominated = true
				break
			}
		}
		if !dominated {
			dst = append(dst, cj)
		}
	}
	return dst
}

// bySizeID orders concept IDs by (extent size, ID).
func bySizeID(sizes []int32, a, b int32) int {
	if sizes[a] != sizes[b] {
		return int(sizes[a] - sizes[b])
	}
	return int(a - b)
}

// intentSubset reports intent(a) ⊆ intent(b), i.e. concept b lies at or
// below concept a. words is the flat intent-word table on one-word
// attribute universes and nil above them.
func (l *Lattice) intentSubset(words []uint64, a, b int32) bool {
	if words != nil {
		return words[a]&^words[b] == 0
	}
	return l.concepts[a].Intent.SubsetOf(l.concepts[b].Intent)
}

// insertionSortCutoff is the length above which candidate and cover-list
// sorts switch from insertion sort (branch-cheap on the short lists that
// dominate) to the stdlib sort (O(n log n) on the large layers where the
// quadratic scan used to show up in profiles).
const insertionSortCutoff = 32

func insertionSortInts(xs []int) {
	if len(xs) > insertionSortCutoff {
		slices.Sort(xs)
		return
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Context returns the context the lattice was built from.
func (l *Lattice) Context() *Context { return l.ctx }

// Len returns the number of concepts.
func (l *Lattice) Len() int { return len(l.concepts) }

// Concept returns the concept with the given ID.
func (l *Lattice) Concept(id int) *Concept { return l.concepts[id] }

// Concepts returns all concepts; the slice is shared and must not be
// mutated.
func (l *Lattice) Concepts() []*Concept { return l.concepts }

// Top returns the ID of the top concept (extent = all objects).
func (l *Lattice) Top() int { return l.top }

// Bottom returns the ID of the bottom concept (intent = all attributes).
func (l *Lattice) Bottom() int { return l.bottom }

// Valid reports whether id names a concept of this lattice. Callers
// handling untrusted IDs (e.g. a network service) check Valid before using
// the positional accessors.
func (l *Lattice) Valid(id int) bool { return l.validID(id) }

// Parents returns the IDs of the concepts covering id (immediately above),
// or nil when id is out of range.
func (l *Lattice) Parents(id int) []int {
	if !l.validID(id) {
		return nil
	}
	return l.parents[id]
}

// Children returns the IDs of the concepts covered by id (immediately
// below), or nil when id is out of range. These are the "concepts
// immediately below this concept" a Cable user descends into.
func (l *Lattice) Children(id int) []int {
	if !l.validID(id) {
		return nil
	}
	return l.children[id]
}

// Meet returns the ID of the greatest lower bound of a and b: the concept
// with extent closure of extent(a) ∩ extent(b). ok is false when either ID
// is out of range or the lattice's index no longer matches its context (a
// stale lattice); the result is only meaningful when ok is true.
func (l *Lattice) Meet(a, b int) (id int, ok bool) {
	if !l.validID(a) || !l.validID(b) {
		return 0, false
	}
	ext := bitset.Intersect(l.concepts[a].Extent, l.concepts[b].Extent)
	intent := l.ctx.Sigma(ext)
	return l.byIntent(intent)
}

// Join returns the ID of the least upper bound of a and b, with the same
// ok semantics as Meet.
func (l *Lattice) Join(a, b int) (id int, ok bool) {
	if !l.validID(a) || !l.validID(b) {
		return 0, false
	}
	intent := bitset.Intersect(l.concepts[a].Intent, l.concepts[b].Intent)
	return l.byIntent(l.ctx.Sigma(l.ctx.Tau(intent)))
}

// validID reports whether id names a concept of this lattice.
func (l *Lattice) validID(id int) bool { return id >= 0 && id < len(l.concepts) }

// byIntent finds the concept with exactly this intent. For a closed intent
// of this lattice's context the lookup always succeeds; ok is false when
// the intent is not closed here — the symptom of an object set from a
// foreign context or of a lattice that no longer matches its context.
func (l *Lattice) byIntent(intent *bitset.Set) (id int, ok bool) {
	id = l.idx.lookup(l.concepts, intent)
	if id < 0 {
		return 0, false
	}
	return id, true
}

// AttributeConcept returns the ID of the maximal concept whose intent
// contains attribute a (μa): the concept (τ({a}), σ(τ({a}))). Reduced
// labeling shows each attribute at this concept only. The table is
// precomputed once per lattice.
func (l *Lattice) AttributeConcept(a int) int { return l.attrConcept[a] }

// ObjectConcept returns the ID of the minimal concept whose extent contains
// object o (γo). Reduced labeling shows each object at this concept only.
// The table is precomputed once per lattice.
func (l *Lattice) ObjectConcept(o int) int { return l.objConcept[o] }

// TopDownOrder returns concept IDs in breadth-first order from the top —
// the traversal order of the Top-down strategy.
func (l *Lattice) TopDownOrder() []int {
	seen := make([]bool, len(l.concepts))
	order := make([]int, 0, len(l.concepts))
	queue := []int{l.top}
	seen[l.top] = true
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, ch := range l.children[id] {
			if !seen[ch] {
				seen[ch] = true
				queue = append(queue, ch)
			}
		}
	}
	return order
}

// String renders every concept with reduced labels.
func (l *Lattice) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lattice: %d concepts (top=%d, bottom=%d)\n", len(l.concepts), l.top, l.bottom)
	for _, c := range l.concepts {
		fmt.Fprintf(&b, "  c%d: extent=%s intent=%s parents=%v\n",
			c.ID, l.names(c.Extent, l.ctx.objNames), l.names(c.Intent, l.ctx.attrNames), l.parents[c.ID])
	}
	return b.String()
}

func (l *Lattice) names(s *bitset.Set, names []string) string {
	parts := []string{}
	s.Range(func(i int) bool {
		parts = append(parts, names[i])
		return true
	})
	return "{" + strings.Join(parts, ", ") + "}"
}
