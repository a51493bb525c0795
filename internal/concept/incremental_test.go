package concept

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// requireByteIdentical asserts that every table of got matches want
// exactly — concept IDs, extents, intents, cover edges (including the
// nil/empty distinction DeepEqual sees), top/bottom, and the query tables.
// This is the "differentially pinned against full rebuild" contract of the
// incremental maintenance paths.
func requireByteIdentical(t *testing.T, got, want *Lattice, msg string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d concepts, rebuild has %d", msg, got.Len(), want.Len())
	}
	for i := range want.concepts {
		g, w := got.concepts[i], want.concepts[i]
		if g.ID != w.ID || !g.Extent.Equal(w.Extent) || !g.Intent.Equal(w.Intent) {
			t.Fatalf("%s: concept %d differs from rebuild\n got: extent=%s intent=%s\nwant: extent=%s intent=%s",
				msg, i, g.Extent, g.Intent, w.Extent, w.Intent)
		}
	}
	if !reflect.DeepEqual(got.parents, want.parents) {
		t.Fatalf("%s: parents differ from rebuild\n got: %v\nwant: %v", msg, got.parents, want.parents)
	}
	if !reflect.DeepEqual(got.children, want.children) {
		t.Fatalf("%s: children differ from rebuild\n got: %v\nwant: %v", msg, got.children, want.children)
	}
	if got.top != want.top || got.bottom != want.bottom {
		t.Fatalf("%s: top/bottom %d/%d, rebuild %d/%d", msg, got.top, got.bottom, want.top, want.bottom)
	}
	if !reflect.DeepEqual(got.objConcept, want.objConcept) {
		t.Fatalf("%s: objConcept differs from rebuild", msg)
	}
	if !reflect.DeepEqual(got.attrConcept, want.attrConcept) {
		t.Fatalf("%s: attrConcept differs from rebuild", msg)
	}
}

// TestIncrementalMatchesRebuildSmall drives dense random add sequences on
// small random contexts, pinning the lattice against a full rebuild after
// every single add. Small universes hit every path hard: duplicate rows,
// novel rows, new top concepts, and adds to a context with no objects. The
// second shape has more than 64 attributes, so the one-word fast paths are
// off and generator search, cover repair and the attribute-table update run
// on Sets; its rows use a few positions on both sides of the word boundary
// so they still nest and collide like a small universe's.
func TestIncrementalMatchesRebuildSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for iter := 0; iter < 120; iter++ {
		c := randomContext(rng, 8, 6)
		pinIncrementalSteps(t, rng, c, nil, fmt.Sprintf("iter %d", iter))
	}
	wide := []int{0, 5, 63, 64, 65, 90}
	for iter := 0; iter < 40; iter++ {
		c := NewContext(nil, make([]string, 96))
		for o := rng.Intn(8); o > 0; o-- {
			c.addObject("w", randomRow(rng, 96, wide))
		}
		pinIncrementalSteps(t, rng, c, wide, fmt.Sprintf("wide iter %d", iter))
	}
}

// randomRow draws a row over na attributes holding each of the given
// positions (all attributes when nil) with probability 1/3.
func randomRow(rng *rand.Rand, na int, positions []int) *bitset.Set {
	row := bitset.New(na)
	if positions == nil {
		for a := 0; a < na; a++ {
			if rng.Intn(3) == 0 {
				row.Add(a)
			}
		}
		return row
	}
	for _, a := range positions {
		if rng.Intn(3) == 0 {
			row.Add(a)
		}
	}
	return row
}

// pinIncrementalSteps builds c, then runs 12 random adds (new rows over
// positions, see randomRow, or copies of existing rows), requiring the
// lattice to match a full rebuild after each.
func pinIncrementalSteps(t *testing.T, rng *rand.Rand, c *Context, positions []int, label string) {
	t.Helper()
	l := Build(c)
	for step := 0; step < 12; step++ {
		var row *bitset.Set
		if n := l.Context().NumObjects(); n > 0 && rng.Intn(3) == 0 {
			row = l.Context().Attributes(rng.Intn(n)).Clone()
		} else {
			row = randomRow(rng, l.Context().NumAttributes(), positions)
		}
		if err := l.AddObjectCtx(context.Background(), fmt.Sprintf("x%s.%d", label, step), row); err != nil {
			t.Fatal(err)
		}
		requireByteIdentical(t, l, Build(l.Context().clone()), fmt.Sprintf("%s step %d: add %s", label, step, row))
		checkLatticeInvariants(t, l)
	}
}

// TestIncrementalMatchesRebuild is the production-scale pin: adds on the
// >10⁴-class xtrace corpus, compared table by table against a full
// rebuild after every add. The two lanes keep the names they had when
// each built with that many cover-linking workers; builds are serial now,
// so a lane's number only seeds its random choice of adds.
func TestIncrementalMatchesRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("big corpus incremental pin under -short")
	}
	ref := bigCorpusRef()
	fc, err := bigCorpusContext()
	if err != nil {
		t.Fatal(err)
	}
	corpus := bigCorpusClasses(60000).Representatives()
	gen := xtrace.Generator{Model: bigCorpusModel(), Seed: 777}
	freshSet, _ := gen.ScenarioSet(300)
	fresh := freshSet.Representatives()
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			l := Build(fc.clone())
			rng := rand.New(rand.NewSource(int64(1000 + workers)))
			pin := func(msg string) {
				t.Helper()
				requireByteIdentical(t, l, Build(l.Context().clone()), msg)
			}
			// Three adds: fresh classes from a different generator seed.
			for i := 0; i < 3; i++ {
				tr := fresh[rng.Intn(len(fresh))]
				if err := l.AddTraceCtx(context.Background(), tr, ref); err != nil {
					t.Fatal(err)
				}
				pin(fmt.Sprintf("add fresh class %q", tr.ID))
			}
			// A guaranteed duplicate-row add: re-adding an existing
			// representative must spawn no concepts and no row
			// representative.
			reps := len(l.reps)
			dup := corpus[rng.Intn(len(corpus))]
			if err := l.AddTraceCtx(context.Background(), dup, ref); err != nil {
				t.Fatal(err)
			}
			pin("add duplicate-row class")
			if len(l.reps) != reps {
				t.Fatalf("duplicate-row object %d became a row representative", l.Context().NumObjects()-1)
			}
		})
	}
}

// TestCloneIndependent pins the copy-on-write contract: mutating a clone
// must leave the original lattice (and its context) untouched, and the
// clone must stay byte-identical to a rebuild.
func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for iter := 0; iter < 40; iter++ {
		c := randomContext(rng, 8, 6)
		orig := Build(c)
		before := Build(orig.Context().clone())
		cl := orig.Clone()
		requireByteIdentical(t, cl, orig, "clone differs from original")
		row := bitset.New(orig.Context().NumAttributes())
		for a := 0; a < orig.Context().NumAttributes(); a++ {
			if rng.Intn(2) == 0 {
				row.Add(a)
			}
		}
		if err := cl.AddObjectCtx(context.Background(), "cloned-add", row); err != nil {
			t.Fatal(err)
		}
		if cl.Context().NumObjects() != orig.Context().NumObjects()+1 {
			t.Fatal("clone add did not extend the clone's context")
		}
		// The original must still match its own pre-clone rebuild.
		requireByteIdentical(t, orig, before, "original mutated through clone")
		requireByteIdentical(t, cl, Build(cl.Context().clone()), "mutated clone")
	}
}

// TestCloneWhileReadingIntentSizes pins Clone as a reader of the lattice:
// one goroutine reads Intent.Len of every concept of a fresh bulk-shaped
// lattice, storing popcounts no one has cached yet, while another clones
// it. cabled does this when one session lists the concepts of a cached
// lattice while another session's first add detaches it. Run it under
// -race.
func TestCloneWhileReadingIntentSizes(t *testing.T) {
	ref, corpus, _ := bulkShapedCorpus(1000, 0)
	fc, err := TraceContext(corpus, ref)
	if err != nil {
		t.Fatal(err)
	}
	l := Build(fc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, c := range l.concepts {
			c.Intent.Len()
		}
	}()
	cl := l.Clone()
	<-done
	requireByteIdentical(t, cl, l, "clone taken during Len reads")
}

// benchFreshTraces samples trace classes disjoint from the shared big
// corpus (different generator seed) for the incremental-add benchmarks.
func benchFreshTraces(b *testing.B) []trace.Trace {
	b.Helper()
	gen := xtrace.Generator{Model: bigCorpusModel(), Seed: 424242}
	freshSet, _ := gen.ScenarioSet(2000)
	return freshSet.Representatives()
}

// bulkShapedCorpus draws the corpus shape of perfbench's bulk workload:
// classes distinct traces of 2 to 6 events over 24 operations, Zipf-skewed
// so a few operations are common and most are rare, under the unordered
// template (a trace's row is the set of operations it uses). It returns
// the template, the corpus, and novel further traces whose rows are new to
// the corpus and to each other.
func bulkShapedCorpus(classes, novel int) (*fa.FA, []trace.Trace, []trace.Trace) {
	const ops = 24
	alpha := make([]event.Event, ops)
	for i := range alpha {
		alpha[i] = event.Call(fmt.Sprintf("op%02d", i), "X")
	}
	ref := fa.Unordered(alpha)
	rng := rand.New(rand.NewSource(20030609))
	z := rand.NewZipf(rng, 1.05, 1, ops-1)
	draw := func(id string) trace.Trace {
		evs := make([]string, 2+rng.Intn(5))
		for j := range evs {
			evs[j] = fmt.Sprintf("op%02d(X)", z.Uint64())
		}
		return trace.ParseEvents(id, evs...)
	}
	set := &trace.Set{}
	for i := 0; set.NumClasses() < classes; i++ {
		set.Add(draw(fmt.Sprintf("t%d", i)))
	}
	corpus := set.Representatives()
	rows := map[string]bool{}
	for _, t := range corpus {
		row, _ := ref.Executed(t)
		rows[row.Key()] = true
	}
	var fresh []trace.Trace
	for i := 0; len(fresh) < novel; i++ {
		t := draw(fmt.Sprintf("n%d", i))
		row, _ := ref.Executed(t)
		if !rows[row.Key()] {
			rows[row.Key()] = true
			fresh = append(fresh, t)
		}
	}
	return ref, corpus, fresh
}

// BenchmarkIncremental measures the incremental lanes against the full
// rebuild they replace at production corpus scale. AddTrace/Pruned is the
// streaming-ingestion hot path (the production pruned Godin step); it
// mostly adds rows the big corpus already has. AddTrace/Novel adds only
// rows new to the lattice, over a bulk-shaped corpus, so every add spawns
// concepts and repairs covers, including the case where the bottom
// concept is a generator. Rebuild is the baseline the ≥10× acceptance
// ratio is read against.
func BenchmarkIncremental(b *testing.B) {
	fc, err := bigCorpusContext()
	if err != nil {
		b.Fatal(err)
	}
	ref := bigCorpusRef()
	fresh := benchFreshTraces(b)
	build := func() *Lattice { return Build(fc.clone()) }
	b.Run("AddTrace/Pruned", func(b *testing.B) {
		// A cycle is 256 adds; their IDs are made here, not timed.
		adds := make([]trace.Trace, 256)
		for i := range adds {
			adds[i] = fresh[i%len(fresh)]
			adds[i].ID = fmt.Sprintf("bench-add-%d", i)
		}
		benchAddCycles(b, build, adds, ref)
	})
	b.Run("AddTrace/Novel", func(b *testing.B) {
		bulkRef, bulkCorpus, novel := bulkShapedCorpus(1000, 256)
		cx, err := TraceContext(bulkCorpus, bulkRef)
		if err != nil {
			b.Fatal(err)
		}
		// A cycle adds every novel row once, each new to the lattice.
		benchAddCycles(b, func() *Lattice { return Build(cx.clone()) }, novel, bulkRef)
	})
	b.Run("Rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Build(fc).Len() == 0 {
				b.Fatal("empty lattice")
			}
		}
	})
}

// benchAddCycles times AddTraceCtx in whole reset cycles. Each cycle
// builds a fresh lattice, untimed, and adds every trace of adds to it in
// order: the lattice never drifts from its baseline size by more than a
// cycle, and no cycle is cut short, so the figures, which it reports per
// add (ns/op, allocs/op and B/op), are the same at any -benchtime. b.N
// counts cycles.
func benchAddCycles(b *testing.B, build func() *Lattice, adds []trace.Trace, ref *fa.FA) {
	var ms runtime.MemStats
	var mallocs, bytes uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := build()
		runtime.ReadMemStats(&ms)
		mallocs0, bytes0 := ms.Mallocs, ms.TotalAlloc
		b.StartTimer()
		for _, tr := range adds {
			if err := l.AddTraceCtx(context.Background(), tr, ref); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - mallocs0
		bytes += ms.TotalAlloc - bytes0
		b.StartTimer()
	}
	n := float64(b.N * len(adds))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/op")
	b.ReportMetric(float64(mallocs)/n, "allocs/op")
	b.ReportMetric(float64(bytes)/n, "B/op")
}
