package concept

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
)

// This file implements the pruned — and, above a candidate threshold,
// parallel — Godin object-insertion step shared by BuildCtx and
// AddObjectCtx. The legacy full scan it replaces (godinLegacy, retained as
// the differential oracle) intersects the new row against every existing
// concept. The pruned step cuts that three ways, each byte-identical to the
// full scan by construction:
//
//  1. Candidate pruning. An inverted index keeps, per attribute, the set of
//     concept IDs whose intent contains it. Only concepts sharing at least
//     one attribute with the row (the union of the row's index entries) can
//     intersect it non-trivially; every other concept intersects to ∅. All
//     those ∅ intersections collapse into a single event: if an ∅-intent
//     concept already exists it is "modified" (∅ ⊆ row vacuously) and gains
//     the object; if not, the full scan would create it exactly once — at
//     the snapshot position of the FIRST disjoint concept — so the pruned
//     scan interleaves that one creation at the same position, keeping the
//     concept-ID assignment order, and hence the snapshot bytes, identical.
//     Candidates are visited in ascending ID order (free: the mask is a
//     bitset), which is the full scan's relative order over them.
//
//  2. Duplicate-row replay. The concept intents after inserting rows
//     r_1..r_k are the closure system generated by those rows (every
//     pairwise intersection of intents is itself an intent), so re-inserting
//     a row already seen can create nothing: intent ∩ row is always an
//     existing intent. The concepts it modifies are exactly those with
//     intent ⊆ row; a per-distinct-row cache (rowCache) lists them, so the
//     replay is a handful of extent Adds instead of a scan. At trace-corpus
//     scale (many trace classes, few distinct executed-transition rows —
//     every distinct row is itself a closed intent, so there are at most as
//     many distinct rows as concepts) this removes almost all insertions
//     from the scan path.
//
//  3. Parallel classification. When the candidate set is large the
//     intersection scan is classified by a worker pool first: workers claim
//     godinChunk strides off an atomic counter, intersect with private
//     scratch, and record per-candidate verdicts (modified / known intent /
//     potential novel intent) against the read-only pre-insertion state.
//     A serial merge then walks the verdicts in ascending candidate order
//     and applies them with exactly the serial scan's effects: "modified"
//     and "known" verdicts are state-independent, and "potential" verdicts
//     are re-probed against the live index because an earlier candidate of
//     the same insertion may have just created the intent. All mutation
//     (arena carving, extent Adds, index and inverted-index inserts)
//     happens in the merge, on one goroutine.

// invIndex is the per-attribute inverted concept index: attr[a] holds the
// IDs of the concepts whose intent contains attribute a, and empty the ID
// of the (at most one) concept with an empty intent, or -1. It is
// maintained incrementally by newConcept during pruned builds and rebuilt
// lazily (invEnsure) for lattices constructed another way (naive builder,
// snapshots, clones).
type invIndex struct {
	attr  []bitset.Set
	empty int
}

func newInvIndex(numAttr int) *invIndex {
	return &invIndex{attr: make([]bitset.Set, numAttr), empty: -1}
}

// register indexes a freshly created concept. Intents are immutable after
// creation, so registration happens exactly once per concept.
func (ix *invIndex) register(c *Concept) {
	nonEmpty := false
	c.Intent.Range(func(a int) bool {
		ix.attr[a].Add(c.ID)
		nonEmpty = true
		return true
	})
	if !nonEmpty {
		ix.empty = c.ID
	}
}

// invEnsure lazily builds the inverted index for lattices whose constructor
// did not maintain one.
func (l *Lattice) invEnsure() {
	if l.inv != nil {
		return
	}
	l.inv = newInvIndex(l.ctx.NumAttributes())
	for _, c := range l.concepts {
		l.inv.register(c)
	}
}

// rowCache records, for one distinct context row, the concepts whose intent
// is a subset of the row — exactly the concepts a repeated occurrence of
// the row modifies (and the only ones: a repeat can create nothing). ids is
// complete for concept IDs below upTo; concepts born later are folded in by
// the next replay.
type rowCache struct {
	ids  []int32
	upTo int
}

// godinScratch bundles the reusable per-insertion state of the pruned Godin
// step and of the cover repair that follows an incremental add. BuildCtx
// keeps one for the whole build; AddObjectCtx caches one on the lattice so
// repeated incremental adds stay allocation-light.
type godinScratch struct {
	inter  bitset.Set // intersection scratch (must not alias its operands)
	mask   bitset.Set // candidate mask: union of inverted-index rows
	keyBuf []byte
	words  []uint64 // flat intent words, one per concept (one-word universes)

	// Parallel classification state.
	cand       []int32
	kind       []uint8
	workers    int // resolved worker bound (≥1)
	pool       *godinPool
	poolWanted bool // BuildCtx amortizes rounds over a persistent pool

	// Cover-repair state (see coverParents): seen[id] == gen marks id as a
	// candidate of the current concept, sizes holds the candidates' extent
	// sizes, and coverCand and covers are the candidate and accepted-cover
	// lists.
	seen      []int32
	gen       int32
	sizes     []int32
	coverCand []int32
	covers    []int32
}

// closePool releases the persistent worker pool, if one was started.
func (g *godinScratch) closePool() {
	if g.pool != nil {
		g.pool.close()
		g.pool = nil
	}
}

// godinInsert replays the Godin loop iteration for object o, whose row must
// already be the context's own row o. The caller must have ensured the
// inverted index (invEnsure) and the row-representative tables (repsEnsure
// or build-time maintenance). The result is byte-identical to godinLegacy.
func (l *Lattice) godinInsert(o int, row *bitset.Set, g *godinScratch) {
	g.keyBuf = row.AppendKey(g.keyBuf[:0])
	if rc, dup := l.repRows[string(g.keyBuf)]; dup {
		l.godinReplay(o, row, rc)
		return
	}
	rc := &rowCache{}
	l.repRows[string(g.keyBuf)] = rc
	l.reps = append(l.reps, int32(o))
	l.godinScan(o, row, g, rc)
}

// godinReplay is the duplicate-row fast path: Add o to every concept whose
// intent is contained in the row, extending the cache over concepts born
// since it was last complete.
func (l *Lattice) godinReplay(o int, row *bitset.Set, rc *rowCache) {
	for _, id := range rc.ids {
		c := l.concepts[id]
		l.arena.EnsureBits(c.Extent, o+1)
		c.Extent.Add(o)
	}
	n := len(l.concepts)
	for id := rc.upTo; id < n; id++ {
		c := l.concepts[id]
		if c.Intent.SubsetOf(row) {
			l.arena.EnsureBits(c.Extent, o+1)
			c.Extent.Add(o)
			rc.ids = append(rc.ids, int32(id))
		}
	}
	rc.upTo = n
}

// godinScan is the first-occurrence path: the pruned (and possibly
// parallel) intersection scan over the candidate concepts.
func (l *Lattice) godinScan(o int, row *bitset.Set, g *godinScratch, rc *rowCache) {
	n := len(l.concepts)
	mask := &g.mask
	mask.Clear()
	row.Range(func(a int) bool {
		mask.UnionWith(&l.inv.attr[a])
		return true
	})
	candCount := mask.Len()
	// Concepts outside the mask intersect the row to ∅. If an ∅-intent
	// concept exists it gains o below (like any intent ⊆ row); otherwise the
	// first outside position is where the full scan creates it.
	preEmpty := l.inv.empty
	emptyAt := -1
	if preEmpty < 0 && candCount < n {
		emptyAt = firstAbsent(mask, n)
	}
	ids := rc.ids[:0]
	if g.workers > 1 && candCount >= parGodinMinCand {
		ids = l.godinScanParallel(o, row, g, emptyAt, ids)
	} else {
		ids = l.godinScanSerial(o, row, g, emptyAt, ids)
	}
	if preEmpty >= 0 {
		c := l.concepts[preEmpty]
		l.arena.EnsureBits(c.Extent, o+1)
		c.Extent.Add(o)
		ids = append(ids, int32(preEmpty))
	}
	rc.ids = ids
	rc.upTo = len(l.concepts)
}

// godinScanSerial visits the candidates in ascending ID order, splitting
// modified concepts from novel intersections exactly like the full scan,
// and interleaving the single ∅-intent creation at snapshot position
// emptyAt (-1: none pending). It returns ids extended with every concept
// that gained o (modified or born).
func (l *Lattice) godinScanSerial(o int, row *bitset.Set, g *godinScratch, emptyAt int, ids []int32) []int32 {
	if len(g.words) > 0 {
		return l.godinScanSerial1(o, row, g, emptyAt, ids)
	}
	inter := &g.inter
	g.mask.Range(func(ci int) bool {
		if emptyAt >= 0 && ci > emptyAt {
			ids = append(ids, l.spawnEmpty(o, g))
			emptyAt = -1
		}
		c := l.concepts[ci]
		if bitset.IntersectEqualsInto(inter, c.Intent, row) {
			l.arena.EnsureBits(c.Extent, o+1)
			c.Extent.Add(o)
			ids = append(ids, int32(ci))
			return true
		}
		if l.idx.lookup(l.concepts, inter) >= 0 {
			return true
		}
		ids = append(ids, l.spawn(o, inter, g))
		return true
	})
	if emptyAt >= 0 {
		ids = append(ids, l.spawnEmpty(o, g))
	}
	return ids
}

// godinScanSerial1 is godinScanSerial specialized for one-word attribute
// universes (≤64 attributes — every shipped corpus): intents and the row
// fit in registers, so the subset verdict is one AND+compare and known
// intents are probed through the flat word table without touching a Set.
func (l *Lattice) godinScanSerial1(o int, row *bitset.Set, g *godinScratch, emptyAt int, ids []int32) []int32 {
	rw := word0(row)
	g.mask.Range(func(ci int) bool {
		if emptyAt >= 0 && ci > emptyAt {
			ids = append(ids, l.spawnEmpty(o, g))
			emptyAt = -1
		}
		yw := g.words[ci]
		iw := yw & rw
		if iw == yw {
			c := l.concepts[ci]
			l.arena.EnsureBits(c.Extent, o+1)
			c.Extent.Add(o)
			ids = append(ids, int32(ci))
			return true
		}
		if l.idx.lookupWord(g.words, iw) >= 0 {
			return true
		}
		bitset.IntersectInto(&g.inter, l.concepts[ci].Intent, row)
		ids = append(ids, l.spawn(o, &g.inter, g))
		return true
	})
	if emptyAt >= 0 {
		ids = append(ids, l.spawnEmpty(o, g))
	}
	return ids
}

// spawn materializes the novel intersection inter as a new concept, exactly
// as the full scan does: the intent is an arena clone of the scratch, the
// extent τ(inter) over objects 0..o.
func (l *Lattice) spawn(o int, inter *bitset.Set, g *godinScratch) int32 {
	in := l.arena.Clone(inter)
	c := l.newConcept(tauUpToArena(l.arena, l.ctx, in, o), in)
	if len(g.words) > 0 {
		g.words = append(g.words, word0(in))
	}
	return int32(c.ID)
}

// spawnEmpty creates the ∅-intent concept with extent {0..o} — what the
// full scan creates when it first meets a concept disjoint from the row.
func (l *Lattice) spawnEmpty(o int, g *godinScratch) int32 {
	in := l.arena.Set(0, 0)
	c := l.newConcept(tauUpToArena(l.arena, l.ctx, in, o), in)
	if len(g.words) > 0 {
		g.words = append(g.words, 0)
	}
	return int32(c.ID)
}

// godinWordsEnsure (re)builds the flat intent-word table for one-word
// attribute universes; wider universes leave it empty and take the general
// path. Amortized O(1) per concept: only missing tail entries are appended.
func (g *godinScratch) godinWordsEnsure(l *Lattice) {
	if l.ctx.NumAttributes() > wordBitsPerSet {
		g.words = nil
		return
	}
	if g.words == nil {
		g.words = make([]uint64, 0, len(l.concepts)+1)
	}
	for i := len(g.words); i < len(l.concepts); i++ {
		g.words = append(g.words, word0(l.concepts[i].Intent))
	}
	g.words = g.words[:len(l.concepts)]
}

// wordBitsPerSet mirrors bitset's word size for the one-word fast paths.
const wordBitsPerSet = 64

// word0 returns the first backing word of s (0 for the empty set); only
// meaningful on one-word universes.
func word0(s *bitset.Set) uint64 {
	if ws := s.Words(); len(ws) > 0 {
		return ws[0]
	}
	return 0
}

// firstAbsent returns the smallest integer in [0, n) missing from s, or -1
// when s covers all of [0, n).
func firstAbsent(s *bitset.Set, n int) int {
	ws := s.Words()
	for wi := 0; wi*wordBitsPerSet < n; wi++ {
		var w uint64
		if wi < len(ws) {
			w = ws[wi]
		}
		if w != ^uint64(0) {
			if i := wi*wordBitsPerSet + bits.TrailingZeros64(^w); i < n {
				return i
			}
			return -1
		}
	}
	return -1
}

// Verdicts of the parallel classification pass.
const (
	godinMod  = 1 // intent ⊆ row: the concept gains o
	godinSkip = 2 // intersection was already an intent before this insertion
	godinPot  = 3 // potential novel intent: re-probed at merge
)

// parGodinMinCand gates the parallel scan: below this many candidates one
// round of cross-goroutine handoff costs more than the scan it would
// split. Package variable so the determinism property tests can force tiny
// parallel rounds.
var parGodinMinCand = 1024

// godinChunk is the stride workers claim off the shared counter.
const godinChunk = 64

// godinRound is one parallel classification round over a materialized
// candidate list. Workers read only pre-insertion state — concept intents
// (immutable), the intent index (read-only until the merge) — and write
// disjoint kind slots, so the round needs no locks beyond the WaitGroup.
type godinRound struct {
	l    *Lattice
	row  *bitset.Set
	cand []int32
	kind []uint8
	next atomic.Int64
	wg   sync.WaitGroup
}

func (r *godinRound) work(scratch *bitset.Set) {
	n := len(r.cand)
	for {
		lo := int(r.next.Add(godinChunk)) - godinChunk
		if lo >= n {
			return
		}
		hi := lo + godinChunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			c := r.l.concepts[r.cand[i]]
			switch {
			case bitset.IntersectEqualsInto(scratch, c.Intent, r.row):
				r.kind[i] = godinMod
			case r.l.idx.lookup(r.l.concepts, scratch) >= 0:
				r.kind[i] = godinSkip
			default:
				r.kind[i] = godinPot
			}
		}
	}
}

// godinPool is a persistent set of classification workers: BuildCtx runs
// one round per inserted object, and spawning goroutines per round would
// dominate the rounds themselves. Workers block on the ticket channel;
// each round posts one ticket per worker, the caller works too, and the
// round's WaitGroup is the barrier before the serial merge.
type godinPool struct {
	tickets chan *godinRound
	scratch []bitset.Set
	n       int
}

func newGodinPool(n int) *godinPool {
	p := &godinPool{tickets: make(chan *godinRound, n), scratch: make([]bitset.Set, n), n: n}
	for i := 0; i < n; i++ {
		sc := &p.scratch[i]
		go func() {
			for r := range p.tickets {
				r.work(sc)
				r.wg.Done()
			}
		}()
	}
	return p
}

func (p *godinPool) run(r *godinRound, callerScratch *bitset.Set) {
	r.wg.Add(p.n)
	for i := 0; i < p.n; i++ {
		p.tickets <- r
	}
	r.work(callerScratch)
	r.wg.Wait()
}

func (p *godinPool) close() { close(p.tickets) }

// runEphemeral runs the round on workers-1 throwaway goroutines plus the
// caller — the shape AddObjectCtx uses, where at most one round per call
// makes a persistent pool pointless.
func (r *godinRound) runEphemeral(workers int, callerScratch *bitset.Set) {
	r.wg.Add(workers - 1)
	for i := 0; i < workers-1; i++ {
		go func() {
			defer r.wg.Done()
			var sc bitset.Set
			r.work(&sc)
		}()
	}
	r.work(callerScratch)
	r.wg.Wait()
}

// godinScanParallel classifies the candidates with the worker pool, then
// merges the verdicts serially in ascending candidate order, replaying
// exactly the serial scan's effects (see the file comment for why this is
// byte-identical for any worker count).
func (l *Lattice) godinScanParallel(o int, row *bitset.Set, g *godinScratch, emptyAt int, ids []int32) []int32 {
	g.cand = g.mask.AppendElems32(g.cand[:0])
	cand := g.cand
	if cap(g.kind) < len(cand) {
		g.kind = make([]uint8, len(cand))
	}
	kind := g.kind[:len(cand)]

	workers := g.workers
	if maxW := (len(cand) + godinChunk - 1) / godinChunk; workers > maxW {
		workers = maxW
	}
	r := &godinRound{l: l, row: row, cand: cand, kind: kind}
	if workers <= 1 {
		r.work(&g.inter)
	} else if g.poolWanted {
		if g.pool == nil {
			// The pool holds workers-1 goroutines sized at first use; the
			// caller is the remaining worker.
			g.pool = newGodinPool(g.workers - 1)
		}
		// Post only as many tickets as this round can use; skipping the
		// handoff to workers the stride count can't feed is cheaper than
		// letting them spin on an exhausted counter.
		r.wg.Add(workers - 1)
		for i := 0; i < workers-1; i++ {
			g.pool.tickets <- r
		}
		r.work(&g.inter)
		r.wg.Wait()
	} else {
		r.runEphemeral(workers, &g.inter)
	}

	inter := &g.inter
	for i, ci := range cand {
		if emptyAt >= 0 && int(ci) > emptyAt {
			ids = append(ids, l.spawnEmpty(o, g))
			emptyAt = -1
		}
		c := l.concepts[ci]
		switch kind[i] {
		case godinMod:
			l.arena.EnsureBits(c.Extent, o+1)
			c.Extent.Add(o)
			ids = append(ids, ci)
		case godinSkip:
			// Already an intent before this insertion; still one now.
		default:
			bitset.IntersectInto(inter, c.Intent, row)
			if l.idx.lookup(l.concepts, inter) >= 0 {
				continue
			}
			ids = append(ids, l.spawn(o, inter, g))
		}
	}
	if emptyAt >= 0 {
		ids = append(ids, l.spawnEmpty(o, g))
	}
	return ids
}

// godinLegacy is the pre-pruning Godin iteration — a full scan of the
// pre-insertion concept snapshot — retained as the differential oracle for
// the pruned path (TestGodinPrunedMatchesLegacy) and as the unpruned
// baseline the incremental benchmarks compare against.
func (l *Lattice) godinLegacy(o int, row *bitset.Set, scratch *bitset.Set) {
	n := len(l.concepts)
	for i := 0; i < n; i++ {
		c := l.concepts[i]
		if bitset.IntersectEqualsInto(scratch, c.Intent, row) {
			l.arena.EnsureBits(c.Extent, o+1)
			c.Extent.Add(o)
			continue
		}
		if l.idx.lookup(l.concepts, scratch) >= 0 {
			continue
		}
		inter := l.arena.Clone(scratch)
		l.newConcept(tauUpToArena(l.arena, l.ctx, inter, o), inter)
	}
}
