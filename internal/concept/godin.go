package concept

import (
	"context"
	"math/bits"

	"repro/internal/bitset"
)

// This file implements insert, the one object-insertion step behind
// BuildCtx (every row of a fresh context) and AddObjectCtx (one appended
// row): the pruned Godin scan, then the query tables, then the covers
// (link, in lattice.go). The full scan it replaces (kept in godin_test.go
// as the buildLegacy oracle) intersects the new row against every
// existing concept. The pruned scan cuts that two ways, each
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
//  2. Extents from intents. A concept's extent is τ of its intent over the
//     whole context (X = τ(Y)), so each concept takes its extent once, when
//     it is born, and a build only has to find intents. The intents after
//     inserting rows r_1..r_k are the closure system those rows generate
//     with the full attribute set (every pairwise intersection of intents
//     is itself an intent), so a row that is already an intent — a
//     repeat, or the intersection of earlier rows — can create nothing,
//     and a build skips it after one index probe. Creation order depends
//     only on the intents and the candidate order, so concept IDs are
//     those of the full scan. An add scans its row even when it is an
//     intent: its object is new to the extents that already exist, and
//     joins those of the concepts whose intent the row contains.

// invIndex is the per-attribute inverted concept index: attr[a] holds the
// IDs of the concepts whose intent contains attribute a, and empty the ID
// of the (at most one) concept with an empty intent, or -1. newConcept
// maintains it during a build's scan, which then drops it, and an add
// rebuilds it lazily (invEnsure) on the lattice it adds to.
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

// godinScratch bundles the reusable state of insert: the pruned scan's,
// the query tables' and the cover linker's. insert keeps one on the
// lattice (scratch), so repeated incremental adds stay allocation-light;
// a build drops its own once the lattice is built.
type godinScratch struct {
	inter bitset.Set // intersection scratch (must not alias its operands)
	mask  bitset.Set // candidate mask: union of inverted-index rows
	words []uint64   // flat intent words, one per concept (one-word universes)
	row   bitset.Set // AddTraceCtx's simulated row, before the context copies it

	// Cover-linking state (see link): the candidate generator, the
	// candidates' extent sizes, the accepted covers of each new concept
	// back to back with their ends, and the new concepts' child counts.
	cover  coverGen
	sizes  []int32
	covers []int32
	ends   []int32
	counts []int32
}

// newGodinLattice starts a build over ctx: a lattice holding the seed
// concept, whose intent is the full attribute set (keeping it makes the
// concept set closed under intersection of intents), and the inverted
// index insert's scan maintains.
//
// The arena's first slab, the first concept-header chunk and the intent
// index are sized for one concept per object plus the seed, the first two
// capped at the sizes later chunks grow to, so a lattice of a few dozen
// concepts does not pin 32 KiB of words for a kilobyte of sets.
func newGodinLattice(ctx *Context) *Lattice {
	numObj, numAttr := ctx.NumObjects(), ctx.NumAttributes()
	guess := numObj + 1
	arena := bitset.NewArenaFor(guess*(wordsFor(numAttr)+wordsFor(numObj)), 2*guess)
	l := &Lattice{ctx: ctx, arena: arena, inv: newInvIndex(numAttr)}
	l.hdr = make([]Concept, 0, min(guess, hdrChunk))
	l.idx.initFor(guess)
	full := arena.Set(numAttr, numAttr).FillFull(numAttr)
	l.newConcept(tauArena(arena, ctx, full), full)
	return l
}

// tauArena computes τ(y) over every object of the context into an
// arena-backed set.
func tauArena(a *bitset.Arena, ctx *Context, y *bitset.Set) *bitset.Set {
	return ctx.TauInto(a.Set(0, ctx.NumObjects()), y)
}

// insert is the one way concepts enter a lattice: the object-insertion
// step of Godin et al.'s Algorithm 1 for context rows first.. (which the
// context already holds), then the query tables over those objects
// (extendTables) and the covers of every concept born since old (link).
// Concepts below old were in the lattice before the step, and they gain
// each new object whose row contains their intent. A concept born inside
// the loop takes τ of its intent over the whole context, so it is
// complete at birth. With old = 0 nothing gains an object, and a row that
// is already an intent can spawn nothing, so it is skipped after one
// index probe. cc is checked between rows and between strides of the
// cover scan.
func (l *Lattice) insert(cc context.Context, first, old int) error {
	l.invEnsure()
	g := l.scratch()
	done := cc.Done()
	for o := first; o < l.ctx.NumObjects(); o++ {
		select {
		case <-done:
			return cc.Err()
		default:
		}
		row := l.ctx.Attributes(o)
		if old == 0 && l.lookupIntent(row, g.words) >= 0 {
			continue
		}
		l.godinScan(row, g, o, old)
	}
	l.extendTables(first)
	return l.link(cc, old)
}

// lookupIntent returns the ID of the concept whose intent is s, or -1,
// probing through the flat intent words on one-word universes (words
// non-nil).
func (l *Lattice) lookupIntent(s *bitset.Set, words []uint64) int {
	if words != nil {
		return l.idx.lookupWord(words, word0(s))
	}
	return l.idx.lookup(l.concepts, s)
}

// godinScan runs the Godin loop iteration for row o of the context: the
// pruned intersection scan over the candidate concepts spawns every novel
// intersection, and o joins the extent of every concept below old whose
// intent the row contains. The caller must have ensured the inverted
// index (invEnsure). The result is byte-identical to the full scan
// (buildLegacy in godin_test.go).
func (l *Lattice) godinScan(row *bitset.Set, g *godinScratch, o, old int) {
	n := len(l.concepts)
	mask := &g.mask
	mask.Clear()
	row.Range(func(a int) bool {
		mask.UnionWith(&l.inv.attr[a])
		return true
	})
	// Concepts outside the mask intersect the row to ∅. If an ∅-intent
	// concept exists it gains the object below (like any intent ⊆ row);
	// otherwise the first outside position is where the full scan creates
	// it.
	preEmpty := l.inv.empty
	emptyAt := -1
	if preEmpty < 0 && mask.Len() < n {
		emptyAt = firstAbsent(mask, n)
	}
	if len(g.words) > 0 {
		l.scanWords(row, g, emptyAt, o, old)
	} else {
		l.scanSets(row, g, emptyAt, o, old)
	}
	if 0 <= preEmpty && preEmpty < old {
		l.gain(preEmpty, o)
	}
}

// scanSets visits the candidates in ascending ID order, splitting
// contained intents from novel intersections exactly like the full scan,
// and interleaving the single ∅-intent creation at snapshot position
// emptyAt (-1: none pending). o and old are godinScan's.
func (l *Lattice) scanSets(row *bitset.Set, g *godinScratch, emptyAt, o, old int) {
	inter := &g.inter
	g.mask.Range(func(ci int) bool {
		if emptyAt >= 0 && ci > emptyAt {
			l.spawn(&bitset.Set{}, g)
			emptyAt = -1
		}
		if bitset.IntersectEqualsInto(inter, l.concepts[ci].Intent, row) {
			if ci < old {
				l.gain(ci, o)
			}
			return true
		}
		if l.idx.lookup(l.concepts, inter) < 0 {
			l.spawn(inter, g)
		}
		return true
	})
	if emptyAt >= 0 {
		l.spawn(&bitset.Set{}, g)
	}
}

// scanWords is scanSets specialized for one-word attribute universes (≤64
// attributes — every shipped corpus): intents and the row fit in
// registers, so the subset verdict is one AND+compare and known intents are
// probed through the flat word table without touching a Set.
//
// Many candidates of one scan meet the same intersection, and only the
// first of them can spawn it: after that probe the word is in the index,
// found or spawned. So the scan probes the index once per distinct
// intersection and remembers the words it resolved in seen, a
// direct-mapped memo on the stack. No candidate's intersection is 0 (each
// shares an attribute with the row), so 0 marks an empty slot; a word
// evicted by a collision is just probed again, which finds it, so spawn
// order and IDs are the full scan's.
func (l *Lattice) scanWords(row *bitset.Set, g *godinScratch, emptyAt, o, old int) {
	rw := word0(row)
	var seen [seenSlots]uint64
	g.mask.Range(func(ci int) bool {
		if emptyAt >= 0 && ci > emptyAt {
			l.spawn(&bitset.Set{}, g)
			emptyAt = -1
		}
		yw := g.words[ci]
		iw := yw & rw
		if iw == yw {
			if ci < old {
				l.gain(ci, o)
			}
			return true
		}
		slot := seenSlot(iw)
		if seen[slot] == iw {
			return true
		}
		seen[slot] = iw
		if l.idx.lookupWord(g.words, iw) < 0 {
			bitset.IntersectInto(&g.inter, l.concepts[ci].Intent, row)
			l.spawn(&g.inter, g)
		}
		return true
	})
	if emptyAt >= 0 {
		l.spawn(&bitset.Set{}, g)
	}
}

// gain adds object o to the extent of concept ci.
func (l *Lattice) gain(ci, o int) {
	c := l.concepts[ci]
	l.arena.EnsureBits(c.Extent, o+1)
	c.Extent.Add(o)
}

// spawn materializes the novel intersection inter as a new concept: the
// intent is an arena clone of the scratch, the extent τ(inter) over the
// whole context.
func (l *Lattice) spawn(inter *bitset.Set, g *godinScratch) {
	in := l.arena.Clone(inter)
	l.newConcept(tauArena(l.arena, l.ctx, in), in)
	if len(g.words) > 0 {
		g.words = append(g.words, word0(in))
	}
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

// seenSlots is the size of scanWords' memo. The bulk-shaped build meets
// about a dozen distinct intersections per scanned row.
const (
	seenBits  = 8
	seenSlots = 1 << seenBits
)

// seenSlot maps an intersection word to its memo slot (Fibonacci hashing
// onto the top seenBits bits).
func seenSlot(w uint64) uint64 { return (w * 0x9e3779b97f4a7c15) >> (64 - seenBits) }

// wordsFor returns the number of words a set over n elements spans.
func wordsFor(n int) int { return (n + wordBitsPerSet - 1) / wordBitsPerSet }

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
