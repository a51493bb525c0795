package concept

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

	// workers is the worker bound the lattice was built with; incremental
	// removals that fall back to an in-place replay rebuild reuse it.
	workers int

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

// BuildOption configures a lattice build.
type BuildOption func(*buildConfig)

type buildConfig struct {
	workers int
}

// WithWorkers bounds the worker pool of the build's one parallel phase,
// cover linking; the Godin insertion step is serial. 0 — and omitting the
// option — means GOMAXPROCS; 1 forces the serial scan.
func WithWorkers(n int) BuildOption {
	return func(c *buildConfig) { c.workers = n }
}

func applyOptions(opts []BuildOption) buildConfig {
	var cfg buildConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

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
// Lattice.
func BuildCtx(cc context.Context, ctx *Context, opts ...BuildOption) (*Lattice, error) {
	cfg := applyOptions(opts)
	sp := obs.StartSpan("lattice.build")
	defer sp.End()
	arena := bitset.NewArena()
	l := &Lattice{ctx: ctx, arena: arena, workers: cfg.workers}
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
	if err := l.finalizeCtx(cc, cfg.workers); err != nil {
		return nil, err
	}
	obs.Observe("lattice.concepts", int64(len(l.concepts)))
	return l, nil
}

// finalize computes the Hasse diagram and the query tables serially; used
// by builders (BuildNaive) that populate l.concepts directly.
func (l *Lattice) finalize() {
	if err := l.finalizeCtx(context.Background(), 1); err != nil {
		panic("concept: finalize: " + err.Error())
	}
}

// finalizeCtx is finalize with cancellation and a worker bound for the
// cover-linking scan. The intent index is built here if the constructing
// algorithm did not maintain one incrementally.
func (l *Lattice) finalizeCtx(cc context.Context, workers int) error {
	if l.idx.n == 0 && len(l.concepts) > 0 {
		l.idx.initFor(len(l.concepts))
		for _, c := range l.concepts {
			l.idx.insert(l.concepts, c.ID)
		}
	}
	if err := l.linkCovers(cc, workers); err != nil {
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

// linkChunk is the stride of the parallel cover-linking scan: workers claim
// chunks of this many concepts from an atomic counter, and cancellation is
// checked between chunks.
const linkChunk = 64

// linkCovers computes the Hasse diagram: c is a child of d iff
// extent(c) ⊂ extent(d) with no concept strictly between.
//
// For each concept c = (X, Y) the upper covers are found through the intent
// index rather than by scanning all concepts: for every object o ∉ X the
// closure σ(X ∪ {o}) = Y ∩ row(o) is a closed intent, so the concept
// immediately above c that absorbs o is a single hash lookup. Every concept
// strictly above c is ≥ one of these candidates, so the upper covers are
// exactly the candidates that are minimal by extent inclusion — determined
// by testing candidates one extent-size layer at a time against the covers
// already accepted from smaller layers. Worst case O(n·|O|) lookups plus a
// few subset tests among candidates, versus the all-pairs-plus-dominated
// scan (cubic in concept count) this replaces.
//
// Three refinements over the direct form: (1) only one representative per
// distinct context row is scanned — duplicate rows yield identical closures
// and identical extent membership, so at trace-corpus scale (many traces,
// few distinct transition sets) the scan shrinks by orders of magnitude;
// (2) domination among candidates is tested on intents, which span the
// attribute universe rather than the (much wider) object universe (see
// minimalCovers); (3) concepts are partitioned across a worker pool —
// per-concept work touches only read-only shared state, so workers claim
// chunks from an atomic counter and write disjoint out-slots, making the
// result bit-identical to the serial scan for any worker count.
func (l *Lattice) linkCovers(cc context.Context, workers int) error {
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
	numObj := l.ctx.NumObjects()

	// One representative object per distinct context row — the same dedup
	// the pruned Godin step maintains, so builds that already paid for it
	// reuse it here.
	l.repsEnsure()
	reps := l.reps

	// attrReps[a] is the set of rep POSITIONS (indices into reps) whose row
	// contains attribute a. The union over a concept's intent is exactly the
	// reps whose closure against that intent is non-empty: reps outside the
	// union close to ∅, and since a rep inside the extent always carries the
	// whole intent, every outside rep is automatically outside the extent
	// too. They all name one candidate — the ∅-intent concept — which must
	// exist whenever any of them does (intersections of closed intents are
	// closed), so the per-rep scan collapses to the in-mask reps plus at
	// most one appended candidate.
	attrReps := make([]bitset.Set, l.ctx.NumAttributes())
	for k, rep := range reps {
		l.ctx.Attributes(int(rep)).Range(func(a int) bool {
			attrReps[a].Add(k)
			return true
		})
	}
	emptyID := l.idx.lookup(l.concepts, &bitset.Set{})

	// On one-word attribute universes (≤64 attributes — every shipped
	// corpus) intents and rows fit in registers: the closure is one AND,
	// known intents are probed through a flat word table, skipping the
	// Set-walking Equal in the index probe, and a domination test is one
	// AND-NOT.
	var intentWord []uint64
	var repWord []uint64
	if l.ctx.NumAttributes() <= wordBitsPerSet {
		intentWord = make([]uint64, n)
		for i, c := range l.concepts {
			intentWord[i] = word0(c.Intent)
		}
		repWord = make([]uint64, len(reps))
		for k, rep := range reps {
			repWord[k] = word0(l.ctx.Attributes(int(rep)))
		}
	}

	// out[ci] receives ci's covers; each worker writes only the slots of
	// chunks it claimed, so the slice needs no synchronization beyond the
	// pool's WaitGroup.
	out := make([][]int32, n)
	type lcWorker struct {
		scratch bitset.Set
		mask    bitset.Set // union of attrReps rows over the concept's intent
		seen    []int32    // seen[id] == gen marks id as a candidate of the current concept
		gen     int32
		cand    []int32
		block   []int32 // cover output; out slices point into retired blocks
		layers  int64
		cands   int64
		busy    time.Duration
	}
	newWorker := func() *lcWorker {
		return &lcWorker{
			seen:  make([]int32, n),
			cand:  make([]int32, 0, len(reps)),
			block: make([]int32, 0, 4096),
		}
	}
	process := func(w *lcWorker, ci int) {
		if int(sizes[ci]) == numObj {
			return // the top concept has no parents
		}
		c := l.concepts[ci]
		w.gen++
		if w.gen == 0 { // stamp wrapped: reset and restart generations
			for i := range w.seen {
				w.seen[i] = 0
			}
			w.gen = 1
		}
		// Collect the deduplicated candidate set {concept(Y ∩ row(o))},
		// visiting only reps sharing ≥1 attribute with the intent; the reps
		// outside the mask collapse into the single ∅-intent candidate.
		w.mask.Clear()
		c.Intent.Range(func(a int) bool {
			w.mask.UnionWith(&attrReps[a])
			return true
		})
		cand := w.cand[:0]
		if intentWord != nil {
			yw := intentWord[ci]
			w.mask.Range(func(k int) bool {
				if c.Extent.Has(int(reps[k])) {
					return true
				}
				id := l.idx.lookupWord(intentWord, yw&repWord[k])
				if id < 0 {
					panic("concept: closure missing from intent index")
				}
				if w.seen[id] != w.gen {
					w.seen[id] = w.gen
					cand = append(cand, int32(id))
				}
				return true
			})
		} else {
			w.mask.Range(func(k int) bool {
				o := int(reps[k])
				if c.Extent.Has(o) {
					return true
				}
				bitset.IntersectInto(&w.scratch, c.Intent, l.ctx.Attributes(o))
				id := l.idx.lookup(l.concepts, &w.scratch)
				if id < 0 {
					panic("concept: closure missing from intent index")
				}
				if w.seen[id] != w.gen {
					w.seen[id] = w.gen
					cand = append(cand, int32(id))
				}
				return true
			})
		}
		if w.mask.Len() < len(reps) {
			// Some rep is disjoint from the intent, so ∅ is a closed intent
			// and its concept is a candidate (in-mask reps never produce it:
			// their closures contain a shared attribute).
			if emptyID < 0 {
				panic("concept: closure missing from intent index")
			}
			cand = append(cand, int32(emptyID))
		}
		if cap(w.block)-len(w.block) < 256 {
			w.block = make([]int32, 0, 4096) // retired blocks stay referenced by out
		}
		start := len(w.block)
		w.block = l.minimalCovers(w.block, cand, sizes, intentWord)
		w.cand = cand
		w.cands += int64(len(cand))
		if len(cand) > 0 {
			w.layers++
			for i := 1; i < len(cand); i++ {
				if sizes[cand[i]] != sizes[cand[i-1]] {
					w.layers++
				}
			}
		}
		out[ci] = w.block[start:len(w.block):len(w.block)]
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	done := cc.Done()
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	var totalLayers, totalCands int64
	if workers <= 1 || n < 2*linkChunk {
		w := newWorker()
		for ci := 0; ci < n; ci++ {
			if ci%linkChunk == 0 && cancelled() {
				return cc.Err()
			}
			process(w, ci)
		}
		totalLayers, totalCands = w.layers, w.cands
		obs.SetGauge("lattice.linkcovers.workers", 1)
	} else {
		numChunks := (n + linkChunk - 1) / linkChunk
		if workers > numChunks {
			workers = numChunks
		}
		ws := make([]*lcWorker, workers)
		var next atomic.Int64
		next.Store(-1)
		start := time.Now()
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := newWorker()
				ws[wi] = w
				for !cancelled() {
					chunk := int(next.Add(1))
					if chunk >= numChunks {
						return
					}
					hi := (chunk + 1) * linkChunk
					if hi > n {
						hi = n
					}
					t0 := time.Now()
					for ci := chunk * linkChunk; ci < hi; ci++ {
						process(w, ci)
					}
					w.busy += time.Since(t0)
				}
			}(wi)
		}
		wg.Wait()
		if cancelled() {
			return cc.Err()
		}
		elapsed := time.Since(start)
		for _, w := range ws {
			totalLayers += w.layers
			totalCands += w.cands
		}
		obs.SetGauge("lattice.linkcovers.workers", int64(workers))
		if m := obs.Default(); m != nil && elapsed > 0 {
			util := m.Histogram("lattice.linkcovers.worker_util_pct")
			for _, w := range ws {
				util.Observe(int64(100 * w.busy / elapsed))
			}
		}
	}
	obs.Count("lattice.linkcovers.layers", totalLayers)
	obs.Count("lattice.linkcovers.candidates", totalCands)

	// Deterministic merge: per-concept covers re-sorted ascending by ID into
	// one parent slab, then the children derived from them.
	totalEdges := 0
	for _, cs := range out {
		totalEdges += len(cs)
	}
	parentSlab := make([]int, totalEdges)
	pos := 0
	for ci, cs := range out {
		p := parentSlab[pos : pos : pos+len(cs)]
		for _, cj := range cs {
			p = append(p, int(cj))
		}
		insertionSortInts(p)
		l.parents[ci] = p
		pos += len(cs)
	}
	l.children = childrenOf(l.parents, totalEdges)
	return nil
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
