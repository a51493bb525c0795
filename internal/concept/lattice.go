package concept

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

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

	// reps holds one representative object per distinct context row in
	// first-occurrence order (the dedup both linkCovers and the pruned Godin
	// step rely on), and repRows maps each distinct row key to its replay
	// cache. Maintained incrementally by pruned builds, built lazily by
	// repsEnsure otherwise; repRows == nil means not built.
	reps    []int32
	repRows map[string]*rowCache

	// inv is the per-attribute inverted concept index the pruned Godin scan
	// intersects against; nil until a pruned build or invEnsure creates it.
	inv *invIndex
	// hdr is the current concept-header slab chunk (see newConcept).
	hdr []Concept
	// godin caches the insertion scratch across incremental adds.
	godin *godinScratch
}

// newConcept appends a concept with the next ID, indexing its intent in idx
// and (when maintained) the inverted attribute index. Headers come from
// chunked slabs: one allocation per 256 concepts, not per concept.
func (l *Lattice) newConcept(extent, intent *bitset.Set) *Concept {
	if len(l.hdr) == cap(l.hdr) {
		l.hdr = make([]Concept, 0, 256)
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
// one at a time; each existing concept whose intent survives intersection
// with the new object's row is modified in place, and each novel
// intersection spawns a new concept. Cover edges are computed in a final
// pass. It is BuildCtx without cancellation.
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
	arena := bitset.NewArena()
	l := &Lattice{ctx: ctx, arena: arena}
	numObj, numAttr := ctx.NumObjects(), ctx.NumAttributes()
	l.idx.initFor(256)
	l.inv = newInvIndex(numAttr)
	l.repRows = make(map[string]*rowCache, numObj)
	l.reps = make([]int32, 0, numObj)

	// Seed with the bottom concept: intent = all attributes, extent = the
	// objects (none yet) having all of them. Keeping the bottom in the
	// lattice makes the concept set closed under intersection of intents.
	// Extents get capacity for the full object universe so in-place Add
	// never leaves the arena.
	l.newConcept(arena.Set(numObj, numObj), arena.Set(numAttr, numAttr).FillFull(numAttr))

	g := &godinScratch{}
	g.godinWordsEnsure(l)
	done := cc.Done()
	for o := 0; o < numObj; o++ {
		select {
		case <-done:
			return nil, cc.Err()
		default:
		}
		l.godinInsert(o, ctx.Attributes(o), g)
	}
	if err := l.finalizeCtx(cc); err != nil {
		return nil, err
	}
	obs.Observe("lattice.concepts", int64(len(l.concepts)))
	return l, nil
}

// finalize computes the Hasse diagram and the query tables; used by
// builders (BuildNaive) that populate l.concepts directly.
func (l *Lattice) finalize() {
	if err := l.finalizeCtx(context.Background()); err != nil {
		panic("concept: finalize: " + err.Error())
	}
}

// finalizeCtx is finalize with cancellation. The intent index is built
// here if the constructing algorithm did not maintain one incrementally.
func (l *Lattice) finalizeCtx(cc context.Context) error {
	if l.idx.n == 0 && len(l.concepts) > 0 {
		l.idx.initFor(len(l.concepts))
		for _, c := range l.concepts {
			l.idx.insert(l.concepts, c.ID)
		}
	}
	if err := l.linkCovers(cc); err != nil {
		return err
	}
	l.mustBuildTables()
	return nil
}

// buildTables precomputes the ObjectConcept and AttributeConcept lookup
// tables. γo has intent σ({o}) = row(o); μa has intent σ(τ({a})). Both are
// closed intents of a well-formed lattice, so the index resolves them
// directly; a miss is reported as an error, which is how ReadSnapshot
// rejects a corrupt snapshot.
func (l *Lattice) buildTables() error {
	sp := obs.StartSpan("lattice.tables")
	defer sp.End()
	scratch := &bitset.Set{}
	l.objConcept = make([]int, l.ctx.NumObjects())
	for o := range l.objConcept {
		id := l.idx.lookup(l.concepts, l.ctx.Attributes(o))
		if id < 0 {
			return fmt.Errorf("row of object %d is not a closed intent", o)
		}
		l.objConcept[o] = id
	}
	l.attrConcept = make([]int, l.ctx.NumAttributes())
	for a := range l.attrConcept {
		l.ctx.SigmaInto(scratch, l.ctx.Objects(a))
		id := l.idx.lookup(l.concepts, scratch)
		if id < 0 {
			return fmt.Errorf("closure of attribute %d is not a closed intent", a)
		}
		l.attrConcept[a] = id
	}
	return nil
}

// mustBuildTables is buildTables for lattices this package built or
// maintained, where a miss is a programming error.
func (l *Lattice) mustBuildTables() {
	if err := l.buildTables(); err != nil {
		panic("concept: " + err.Error())
	}
}

// tauUpToArena computes τ(y) restricted to objects 0..limit inclusive, into
// an arena-backed set with capacity for the full object universe (so the
// Godin loop can later Add objects in place).
func tauUpToArena(a *bitset.Arena, ctx *Context, y *bitset.Set, limit int) *bitset.Set {
	out := a.Set(0, ctx.NumObjects())
	out.FillFull(limit + 1)
	y.Range(func(attr int) bool {
		out.IntersectWith(ctx.Objects(attr))
		return true
	})
	return out
}

// linkChunk is the number of concepts the cover-linking scan handles
// between cancellation checks.
const linkChunk = 64

// linkCovers computes the Hasse diagram: c is a child of d iff
// extent(c) ⊂ extent(d) with no concept strictly between.
//
// Each concept's upper covers are found through the intent index rather
// than by scanning all concepts: coverGen collects a candidate set of
// concepts strictly above it that contains every cover — its closed
// proper sub-intents or its closures with one object per distinct row,
// whichever takes fewer index probes — and minimalCovers keeps the
// candidates minimal by extent inclusion, testing one extent-size layer at
// a time against the covers already accepted from smaller layers, on
// intents, which span the attribute universe rather than the (much wider)
// object universe. A concept with intent Y costs at most min(2^|Y|−1,
// distinct rows) probes plus a few subset tests among candidates, versus
// the all-pairs-plus-dominated scan (cubic in concept count) this
// replaces.
func (l *Lattice) linkCovers(cc context.Context) error {
	sp := obs.StartSpan("lattice.link_covers")
	defer sp.End()
	n := len(l.concepts)
	l.parents = make([][]int, n)
	if n == 0 {
		l.children = [][]int{}
		l.top, l.bottom = 0, 0
		return nil
	}
	sizes := make([]int32, n)
	l.top, l.bottom = 0, 0
	for i, c := range l.concepts {
		sizes[i] = int32(c.Extent.Len())
		if sizes[i] > sizes[l.top] {
			l.top = i
		}
		if sizes[i] < sizes[l.bottom] {
			l.bottom = i
		}
	}

	// One representative object per distinct context row — the same dedup
	// the pruned Godin step maintains, so builds that already paid for it
	// reuse it here.
	l.repsEnsure()
	attrReps := make([]bitset.Set, l.ctx.NumAttributes())
	for k, rep := range l.reps {
		l.ctx.Attributes(int(rep)).Range(func(a int) bool {
			attrReps[a].Add(k)
			return true
		})
	}
	var words []uint64
	if l.ctx.NumAttributes() <= wordBitsPerSet {
		words = make([]uint64, n)
		for i, c := range l.concepts {
			words[i] = word0(c.Intent)
		}
	}
	cover := coverGen{
		l: l, words: words, attrReps: attrReps,
		emptyID: l.idx.lookup(l.concepts, &bitset.Set{}),
		// The sub-intent path runs only when it has fewer subsets to probe
		// than there are reps; the row path finds at most one candidate per
		// rep, plus ∅.
		cand: make([]int32, 0, len(l.reps)+1),
	}

	// covers holds every concept's covers back to back: concept ci's are
	// covers[ends[ci-1]:ends[ci]].
	covers := make([]int32, 0, 4096)
	ends := make([]int32, n)
	done := cc.Done()
	var layers, cands int64
	for ci := 0; ci < n; ci++ {
		if ci%linkChunk == 0 {
			select {
			case <-done:
				return cc.Err()
			default:
			}
		}
		cand := cover.next(ci)
		covers = l.minimalCovers(covers, cand, sizes, words)
		ends[ci] = int32(len(covers))
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
	obs.Count("lattice.linkcovers.layers", layers)
	obs.Count("lattice.linkcovers.candidates", cands)
	obs.Count("lattice.linkcovers.subset_probes", cover.subsetProbes)
	obs.Count("lattice.linkcovers.rep_probes", cover.repProbes)

	// Each concept's covers re-sorted ascending by ID into one parent slab,
	// then the children derived from them.
	parentSlab := make([]int, len(covers))
	start := 0
	for ci, end := range ends {
		p := parentSlab[start:start:end]
		for _, cj := range covers[start:end] {
			p = append(p, int(cj))
		}
		insertionSortInts(p)
		l.parents[ci] = p
		start = int(end)
	}
	l.children = childrenOf(l.parents, len(covers))
	return nil
}

// coverGen collects cover candidates one concept at a time: a deduplicated
// list of concepts strictly above the concept that contains all of its
// upper covers, which minimalCovers reduces to exactly the covers.
// linkCovers runs one per build; coverParents keeps one in the Godin
// scratch for incremental adds.
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
	// attrReps[a], when set, holds the positions in l.reps of the reps
	// whose row contains attribute a, so the row path visits only the
	// union over Y: every rep outside it closes to ∅ (and so lies outside
	// X), and all of those name one candidate, the ∅-intent concept
	// emptyID, which exists whenever any of them does (intersections of
	// closed intents are closed). nil means visit every rep.
	attrReps []bitset.Set
	emptyID  int

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
	if g.attrReps == nil {
		for k := range l.reps {
			g.probeRep(c, k)
		}
		return g.cand
	}
	g.mask.Clear()
	c.Intent.Range(func(a int) bool {
		g.mask.UnionWith(&g.attrReps[a])
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

// childrenOf derives the downward cover lists from the upward ones: a
// counting pass sizes each list inside one slab of totalEdges entries, and
// filling in ascending concept order leaves every list sorted.
func childrenOf(parents [][]int, totalEdges int) [][]int {
	n := len(parents)
	childCount := make([]int, n)
	for _, ps := range parents {
		for _, p := range ps {
			childCount[p]++
		}
	}
	children := make([][]int, n)
	childSlab := make([]int, totalEdges)
	pos := 0
	for i, cnt := range childCount {
		children[i] = childSlab[pos : pos : pos+cnt]
		pos += cnt
	}
	for ci, ps := range parents {
		for _, p := range ps {
			children[p] = append(children[p], ci)
		}
	}
	return children
}

func wordsFor(n int) int { return (n + 63) / 64 }

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

// Leq reports whether concept a ≤ concept b in the lattice order
// (extent(a) ⊆ extent(b)).
func (l *Lattice) Leq(a, b int) bool {
	return l.concepts[a].Extent.SubsetOf(l.concepts[b].Extent)
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

// findScratch pools the σ(X) scratch sets Find uses, making lookups
// allocation-free under concurrent query load (the lattice server hits
// Find from many request goroutines).
var findScratch = sync.Pool{New: func() any { return new(bitset.Set) }}

// Find returns the most specific concept whose extent contains all the
// given objects: the concept (τ(σ(X)), σ(X)). ok is false — instead of the
// panic earlier versions raised — when the object set references objects
// outside the context or the closure is missing from a stale index.
func (l *Lattice) Find(objects *bitset.Set) (id int, ok bool) {
	// Reject foreign object sets up front: Sigma indexes context rows by
	// object, so an out-of-range bit would panic inside it.
	numObj := l.ctx.NumObjects()
	inRange := true
	objects.Range(func(o int) bool {
		if o >= numObj {
			inRange = false
			return false
		}
		return true
	})
	if !inRange {
		return 0, false
	}
	sc := findScratch.Get().(*bitset.Set)
	id, ok = l.byIntent(l.ctx.SigmaInto(sc, objects))
	findScratch.Put(sc)
	return id, ok
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
