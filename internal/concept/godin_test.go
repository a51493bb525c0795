package concept

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/trace"
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

// tauUpToArena computes τ(y) restricted to objects 0..limit inclusive, into
// an arena-backed set with capacity for the full object universe (so the
// legacy loop can later Add objects in place).
func tauUpToArena(a *bitset.Arena, ctx *Context, y *bitset.Set, limit int) *bitset.Set {
	out := a.Set(0, ctx.NumObjects())
	out.FillFull(limit + 1)
	y.Range(func(attr int) bool {
		out.IntersectWith(ctx.cols[attr])
		return true
	})
	return out
}

// buildLegacy is the differential oracle for the pruned Godin step: Build's
// seed and loop with the full scan per object, then the tables and covers
// as BuildNaive takes them.
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
	l.extendTables(0)
	if err := l.link(context.Background(), 0); err != nil {
		panic(err)
	}
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
// mid-size slice of the >10⁴-class xtrace fixture — thousands of trace
// classes over few distinct rows, so almost every row is skipped as an
// intent the build already holds.
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
// context. This exercises the scan's extent growth, the lazily built
// inverted index, and the incremental updateTablesAfterAdd against the
// legacy loop.
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

// TestBuildSkipsIntersectionRow pins the loop's skip of rows it already
// holds as intents, on a row no earlier object has: object 2's row is the
// intersection of rows 0 and 1, so the build scans nothing for it, yet
// object 2 is its row's rep, lies in the extents of every concept whose
// intent its row contains, and the covers are those of the all-pairs
// oracle. The attributes span one word (10) and two (70); object 3 brings
// a fresh row after the skip.
func TestBuildSkipsIntersectionRow(t *testing.T) {
	for _, na := range []int{10, 70} {
		c := NewContext(nil, make([]string, na))
		r0 := bitset.FromSlice([]int{0, 1, na - 1})
		r1 := bitset.FromSlice([]int{1, 2, na - 1})
		for o, row := range []*bitset.Set{r0, r1, bitset.Intersect(r0, r1), bitset.FromSlice([]int{2, 3})} {
			c.addObject(fmt.Sprintf("o%d", o), row)
		}
		l := Build(c)
		if got := fmt.Sprint(l.reps); got != "[0 1 2 3]" {
			t.Fatalf("%d attributes: reps %s, want [0 1 2 3]", na, got)
		}
		id, ok := l.byIntent(bitset.FromSlice([]int{1, na - 1}))
		if !ok || l.ObjectConcept(2) != id || !l.Concept(id).Extent.Equal(bitset.FromSlice([]int{0, 1, 2})) {
			t.Fatalf("%d attributes: object 2's concept is %d, want the intent {1, %d} with extent {0, 1, 2}", na, l.ObjectConcept(2), na-1)
		}
		for _, cc := range l.concepts {
			if want := cc.Intent.SubsetOf(c.Attributes(2)); cc.Extent.Has(2) != want {
				t.Fatalf("%d attributes: concept %d has object 2: %v, want %v", na, cc.ID, !want, want)
			}
		}
		parents, _ := linkCoversAllPairs(l)
		for id := range l.concepts {
			insertionSortInts(parents[id])
			if !equalInts(l.Parents(id), parents[id]) {
				t.Fatalf("%d attributes: parents of %d: %v, all-pairs %v", na, id, l.Parents(id), parents[id])
			}
		}
		if !bytes.Equal(snapshotBytes(t, l), snapshotBytes(t, buildLegacy(c))) {
			t.Fatalf("%d attributes: build differs from the full-scan oracle", na)
		}
	}
}

// TestBulkShapedBuildAllocs pins the allocations of a build over the
// bulk-shaped corpus (1000 classes, 718 distinct rows, 1328 concepts).
// Extents taken once per concept as τ of its intent need no per-row
// state, so the build allocates a few hundred objects, not some per row
// (219, 220 under the race detector). Nothing in the build is pooled, so
// the pin holds under the race detector too.
func TestBulkShapedBuildAllocs(t *testing.T) {
	ref, corpus, _ := bulkShapedCorpus(1000, 0)
	fc, err := TraceContext(corpus, ref)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(3, func() { Build(fc) }); allocs > 280 {
		t.Fatalf("Build allocates %.0f objects, want at most 280", allocs)
	}
}

// TestBulkShapedAddAllocs pins the allocations of warm adds to a
// bulk-shaped lattice, averaged over 64 adds after one add has made the
// insertion scratch, with or without the race detector. A novel row
// spawns concepts and links their covers, whose parent and child lists
// take one slab each; a duplicate row spawns nothing, so it allocates
// only its copy into the context.
func TestBulkShapedAddAllocs(t *testing.T) {
	ref, corpus, novel := bulkShapedCorpus(1000, 65)
	fc, err := TraceContext(corpus, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		adds []trace.Trace
		most float64
	}{{"novel", novel, 7}, {"duplicate", corpus[:65], 2}} {
		l := Build(fc.clone())
		i := 0
		add := func() {
			if err := l.AddTraceCtx(context.Background(), c.adds[i], ref); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if allocs := testing.AllocsPerRun(64, add); allocs > c.most {
			t.Errorf("a warm %s-row add allocates %.0f objects, want at most %.0f", c.name, allocs, c.most)
		}
	}
}

// TestBulkShapedContextAndCloneAllocs pins the allocations of the two
// per-session steps around a build on the bulk-shaped corpus. Context
// assembly simulates each trace straight into a row cut from one slab,
// so it allocates per attribute and per context, not per trace (4,127
// objects with a fresh set per simulation and per row). A clone copies
// the lattice into one arena sized to its words and the context into two
// slabs (2,078 objects with a set per row and column and an arena that
// grows from 32 KiB).
func TestBulkShapedContextAndCloneAllocs(t *testing.T) {
	ref, corpus, _ := bulkShapedCorpus(1000, 0)
	fc, err := TraceContext(corpus, ref) // compiles the plan
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(3, func() { TraceContext(corpus, ref) }); allocs > 100 {
		t.Fatalf("TraceContext allocates %.0f objects, want at most 100", allocs)
	}
	l := Build(fc)
	if allocs := testing.AllocsPerRun(3, func() { l.Clone() }); allocs > 64 {
		t.Fatalf("Clone allocates %.0f objects, want at most 64", allocs)
	}
}

// memoRows returns the rows of a context whose last scans each meet more
// distinct intersections than scanWords' memo has slots, over 12
// attributes. Ten rows of the contranominal scale on attributes 0–9, each
// with attribute 10, make every S ∪ {10} (S ⊆ {0..9}) an intent. The row
// {0..9, 11} then meets each of the 1023 nonempty S once and spawns it,
// the row {0..8, 10, 11} meets 1023 other words once each, and the row
// {0..7, 10} meets each of its distinct words up to three times, with
// hundreds of other words between the meetings.
func memoRows() []*bitset.Set {
	var rows []*bitset.Set
	for i := 0; i < 10; i++ {
		r := bitset.FromSlice([]int{10})
		for a := 0; a < 10; a++ {
			if a != i {
				r.Add(a)
			}
		}
		rows = append(rows, r)
	}
	r1 := bitset.FromSlice([]int{11})
	r2 := bitset.FromSlice([]int{10, 11})
	r3 := bitset.FromSlice([]int{10})
	for a := 0; a < 10; a++ {
		r1.Add(a)
		if a < 9 {
			r2.Add(a)
		}
		if a < 8 {
			r3.Add(a)
		}
	}
	return append(rows, r1, r2, r3)
}

// intersections counts the words that a scan of row over l meets outside
// the intents the row contains, the words scanWords resolves against the
// intent index: how many meetings, and how many distinct words.
func intersections(l *Lattice, row *bitset.Set) (meetings, distinct int) {
	rw := word0(row)
	seen := map[uint64]bool{}
	for _, c := range l.concepts {
		if yw := word0(c.Intent); yw&rw != 0 && yw&rw != yw {
			meetings++
			seen[yw&rw] = true
		}
	}
	return meetings, len(seen)
}

// TestGodinMemoEviction pins scanWords' intersection memo where it
// overflows: on rows of 9 or more attributes, where one scan meets more
// distinct intersections than the memo has slots, Build must write
// buildLegacy's snapshot bytes, and a build over every prefix grown by
// AddObjectCtx over the rest must equal Build of the whole. The fixture is
// memoRows plus random contexts of 12 to 20 attributes whose rows hold at
// least 9.
func TestGodinMemoEviction(t *testing.T) {
	check := func(name string, numAttr int, rows []*bitset.Set, prefixes []int) {
		t.Helper()
		ctxOf := func(n int) *Context { return contextOfRows(numAttr, rows[:n]) }
		whole := Build(ctxOf(len(rows)))
		if !bytes.Equal(snapshotBytes(t, whole), snapshotBytes(t, buildLegacy(ctxOf(len(rows))))) {
			t.Fatalf("%s: Build differs from the full-scan oracle", name)
		}
		for _, p := range prefixes {
			grown := Build(ctxOf(p))
			for o := p; o < len(rows); o++ {
				if err := grown.AddObjectCtx(context.Background(), fmt.Sprintf("o%d", o), rows[o]); err != nil {
					t.Fatal(err)
				}
			}
			requireByteIdentical(t, grown, whole, fmt.Sprintf("%s: build of %d objects grown to %d", name, p, len(rows)))
		}
	}

	rows := memoRows()
	n := len(rows)
	meetings, distinct := intersections(Build(contextOfRows(12, rows[:n-1])), rows[n-1])
	if distinct <= seenSlots || meetings < 2*distinct {
		t.Fatalf("the last memo row meets %d distinct intersections %d times, want more than %d met twice on average",
			distinct, meetings, seenSlots)
	}
	all := make([]int, n+1)
	for p := range all {
		all[p] = p
	}
	check("memoRows", 12, rows, all)

	rng := rand.New(rand.NewSource(36))
	for iter := 0; iter < 6; iter++ {
		numAttr := 12 + rng.Intn(9)
		rows := make([]*bitset.Set, 8+rng.Intn(10))
		for o := range rows {
			rows[o] = bitset.New(numAttr)
			for _, a := range rng.Perm(numAttr)[:9+rng.Intn(numAttr-8)] {
				rows[o].Add(a)
			}
		}
		check(fmt.Sprintf("random %d", iter), numAttr, rows, []int{0, rng.Intn(len(rows) + 1)})
	}
}

// contextOfRows returns the context of the given rows over numAttr
// attributes.
func contextOfRows(numAttr int, rows []*bitset.Set) *Context {
	c := NewContext(nil, make([]string, numAttr))
	for o, r := range rows {
		c.addObject(fmt.Sprintf("o%d", o), r)
	}
	return c
}

// BenchmarkBulkShaped measures context assembly (TraceContext), a full
// Build, cover linking alone (LinkCovers) and the copy-on-write Clone on
// the bulk-shaped corpus (1000 classes over 24 operations, 1328
// concepts), the lattice shape of perfbench's bulk workload.
func BenchmarkBulkShaped(b *testing.B) {
	ref, corpus, _ := bulkShapedCorpus(1000, 0)
	fc, err := TraceContext(corpus, ref)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("TraceContext", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TraceContext(corpus, ref); err != nil {
				b.Fatal(err)
			}
		}
	})
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
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.relink(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Clone", func(b *testing.B) {
		l := Build(fc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if l.Clone().Len() == 0 {
				b.Fatal("empty clone")
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
