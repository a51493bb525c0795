package concept

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// snapshotBytes serializes the lattice; byte equality of snapshots is the
// pinned notion of "identical" for the Godin determinism properties (it
// covers the context, every concept's sets in ID order, and all covers).
func snapshotBytes(t testing.TB, l *Lattice) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// godinLegacy is the pre-pruning Godin iteration: a full scan of the
// pre-insertion concept snapshot, intersecting the row with every intent.
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

// buildLegacy is the differential oracle for the pruned Godin step: Build's
// seed and loop with the full scan per object, then finalize.
func buildLegacy(ctx *Context) *Lattice {
	arena := bitset.NewArena()
	l := &Lattice{ctx: ctx, arena: arena}
	numObj, numAttr := ctx.NumObjects(), ctx.NumAttributes()
	l.idx.initFor(256)
	l.newConcept(arena.Set(numObj, numObj), arena.Set(numAttr, numAttr).FillFull(numAttr))
	scratch := &bitset.Set{}
	for o := 0; o < numObj; o++ {
		l.godinLegacy(o, ctx.Attributes(o), scratch)
	}
	l.finalize()
	return l
}

// TestPropParallelGodinDeterministic pins the tentpole property: the pruned
// Godin insertion step produces a lattice byte-identical (WriteSnapshot)
// to the full-scan oracle buildLegacy, over randomized corpora spanning
// the one-word fast path (≤64 attributes) and the general path.
func TestPropParallelGodinDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for iter := 0; iter < iters; iter++ {
		var c *Context
		switch iter % 3 {
		case 0:
			c = randomContext(rng, 40, 24)
		case 1:
			c = denseRandomContext(rng, 10+rng.Intn(50), 1+rng.Intn(30))
		default:
			// Past one word: exercises the general (Set-walking) scan.
			c = randomContext(rng, 30, 100)
		}
		want := snapshotBytes(t, buildLegacy(c))
		l := Build(c)
		if got := snapshotBytes(t, l); !bytes.Equal(got, want) {
			t.Fatalf("iter %d: pruned build snapshot differs from the legacy full scan on\n%s", iter, c)
		}
		checkLatticeInvariants(t, l)
	}
}

// TestParallelGodinDeterministicBigCorpus is the same property on a
// mid-size slice of the >10⁴-class xtrace fixture — real duplicate-row
// replay territory (thousands of trace classes, few distinct rows).
func TestParallelGodinDeterministicBigCorpus(t *testing.T) {
	set := bigCorpusClasses(4000)
	fc, err := TraceContext(set.Representatives(), bigCorpusRef())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotBytes(t, Build(fc)), snapshotBytes(t, buildLegacy(fc)); !bytes.Equal(got, want) {
		t.Fatal("pruned big-corpus build snapshot differs from the legacy full scan")
	}
}

// TestGodinPrunedMatchesLegacy is the pruned-vs-unpruned differential over
// incremental add sequences: a pruned lattice built over a prefix context
// receives the remaining rows through AddObjectCtx one at a time, and after
// every add it must be byte-identical to buildLegacy over the grown
// context. This exercises the replay cache, the lazily built inverted
// index, and the incremental updateTablesAfterAdd against the legacy loop.
func TestGodinPrunedMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(99173))
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for iter := 0; iter < iters; iter++ {
		full := randomContext(rng, 30, 20)
		no := full.NumObjects()
		base := 1 + rng.Intn(no)
		prefix := func() *Context {
			objs := make([]string, base)
			for i := range objs {
				objs[i] = fmt.Sprintf("o%d", i)
			}
			attrs := make([]string, full.NumAttributes())
			for i := range attrs {
				attrs[i] = fmt.Sprintf("a%d", i)
			}
			c := NewContext(objs, attrs)
			for o := 0; o < base; o++ {
				full.Attributes(o).Range(func(a int) bool {
					c.Relate(o, a)
					return true
				})
			}
			return c
		}
		pruned := Build(prefix())
		for o := base; o < no; o++ {
			if err := pruned.AddObjectCtx(context.Background(), fmt.Sprintf("o%d", o), full.Attributes(o)); err != nil {
				t.Fatal(err)
			}
			legacy := buildLegacy(pruned.Context().clone())
			if !bytes.Equal(snapshotBytes(t, pruned), snapshotBytes(t, legacy)) {
				t.Fatalf("iter %d: pruned and legacy lattices diverge after adding object %d of\n%s",
					iter, o, full)
			}
			requireByteIdentical(t, pruned, legacy, fmt.Sprintf("iter %d: pruned vs legacy after adding object %d", iter, o))
		}
	}
}

// BenchmarkBulkShaped measures cover linking alone (LinkCovers) and
// inside a full Build on the bulk-shaped corpus (1000 classes over 24
// operations, 1328 concepts), the lattice shape of perfbench's bulk
// workload.
func BenchmarkBulkShaped(b *testing.B) {
	ref, corpus, _ := bulkShapedCorpus(1000, 0)
	fc, err := TraceContext(corpus, ref)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Build(fc).Len() == 0 {
				b.Fatal("empty lattice")
			}
		}
	})
	b.Run("LinkCovers", func(b *testing.B) {
		l := Build(fc)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := l.linkCovers(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSortInts pins the insertionSortInts cutoff: small cover lists
// must stay on the branch-cheap insertion sort (no regression from the
// slices.Sort switch), large layers get the O(n log n) path.
func BenchmarkSortInts(b *testing.B) {
	bench := func(n int) func(*testing.B) {
		return func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			src := make([]int, n)
			for i := range src {
				src[i] = rng.Intn(1 << 20)
			}
			buf := make([]int, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				insertionSortInts(buf)
			}
		}
	}
	b.Run("Small8", bench(8))
	b.Run("Small32", bench(32))
	b.Run("Large1024", bench(1024))
}
