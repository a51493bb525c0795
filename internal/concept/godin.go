package concept

import (
	"math/bits"

	"repro/internal/bitset"
)

// This file implements the pruned Godin object-insertion step shared by
// BuildCtx and AddObjectCtx. The full scan it replaces (kept in
// godin_test.go as the buildLegacy oracle) intersects the new row against
// every existing concept. The pruned step cuts that two ways, each
// byte-identical to the full scan by construction:
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

// godinInsert replays the Godin loop iteration for object o, whose row must
// already be the context's own row o. The caller must have ensured the
// inverted index (invEnsure) and the row-representative tables (repsEnsure
// or build-time maintenance). The result is byte-identical to the full scan
// (buildLegacy in godin_test.go).
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

// godinScan is the first-occurrence path: the pruned intersection scan over
// the candidate concepts.
func (l *Lattice) godinScan(o int, row *bitset.Set, g *godinScratch, rc *rowCache) {
	n := len(l.concepts)
	mask := &g.mask
	mask.Clear()
	row.Range(func(a int) bool {
		mask.UnionWith(&l.inv.attr[a])
		return true
	})
	// Concepts outside the mask intersect the row to ∅. If an ∅-intent
	// concept exists it gains o below (like any intent ⊆ row); otherwise the
	// first outside position is where the full scan creates it.
	preEmpty := l.inv.empty
	emptyAt := -1
	if preEmpty < 0 && mask.Len() < n {
		emptyAt = firstAbsent(mask, n)
	}
	ids := l.godinScanSerial(o, row, g, emptyAt, rc.ids[:0])
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
