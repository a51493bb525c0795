package concept

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// denseRandomContext builds a context dense enough to yield well over
// 2*linkChunk concepts, so worker counts > 1 actually enter the parallel
// pool instead of the small-lattice serial path.
func denseRandomContext(rng *rand.Rand, objs, attrs int) *Context {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = prefix
		}
		return out
	}
	c := NewContext(names("o", objs), names("a", attrs))
	for o := 0; o < objs; o++ {
		for a := 0; a < attrs; a++ {
			if rng.Intn(3) == 0 {
				c.Relate(o, a)
			}
		}
	}
	return c
}

// TestPropParallelLinkCoversDeterministic pins the layer-parallel cover
// scan to the serial one: for any worker count the resulting lattice —
// concept order, parents, children, top, bottom, query tables — must be
// identical, on the one-word intent path and, for the last input (more
// than 64 attributes), on the Set path. Run under -race this also checks
// the pool's only shared writes (disjoint out slots) are clean.
func TestPropParallelLinkCoversDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 9; iter++ {
		attrs := 14
		if iter == 8 {
			attrs = 70
		}
		c := denseRandomContext(rng, 40+rng.Intn(20), attrs)
		serial, err := BuildCtx(context.Background(), c, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if serial.Len() < 2*linkChunk {
			t.Fatalf("iter %d: fixture too small to exercise the pool (%d concepts)", iter, serial.Len())
		}
		for _, workers := range []int{2, 8} {
			par, err := BuildCtx(context.Background(), c, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if par.Len() != serial.Len() {
				t.Fatalf("iter %d workers=%d: %d concepts vs %d serial", iter, workers, par.Len(), serial.Len())
			}
			for id, sc := range serial.concepts {
				pc := par.concepts[id]
				if !sc.Extent.Equal(pc.Extent) || !sc.Intent.Equal(pc.Intent) {
					t.Fatalf("iter %d workers=%d: concept %d differs", iter, workers, id)
				}
			}
			if !reflect.DeepEqual(par.parents, serial.parents) {
				t.Fatalf("iter %d workers=%d: parents differ", iter, workers)
			}
			if !reflect.DeepEqual(par.children, serial.children) {
				t.Fatalf("iter %d workers=%d: children differ", iter, workers)
			}
			if par.top != serial.top || par.bottom != serial.bottom {
				t.Fatalf("iter %d workers=%d: top/bottom %d/%d vs %d/%d",
					iter, workers, par.top, par.bottom, serial.top, serial.bottom)
			}
			if !reflect.DeepEqual(par.objConcept, serial.objConcept) ||
				!reflect.DeepEqual(par.attrConcept, serial.attrConcept) {
				t.Fatalf("iter %d workers=%d: query tables differ", iter, workers)
			}
		}
	}
}

// TestParallelLinkCoversMatchesOracle cross-checks the parallel scan
// against the independent all-pairs oracle, not just against the serial
// twin, and checks that each fixture reaches the candidate paths it is
// there for (coverGen's probe counters):
//   - random dense contexts; the last has more than 64 attributes, so
//     candidates come from rows and domination takes the Set path;
//   - the bulk-shaped corpus, where every concept but the bottom probes
//     its sub-intents, pinned to its exact probe counts;
//   - a contranominal scale, where small intents probe sub-intents and
//     large ones (the bottom included) probe rows;
//   - a 64-attribute context with a full row, whose 64-bit bottom intent
//     must take the row path instead of overflowing the subset count.
func TestParallelLinkCoversMatchesOracle(t *testing.T) {
	const some = -1 // any positive probe count
	type fixture struct {
		name string
		ctx  *Context
		// wantSubset and wantRep are the expected probe counts of each
		// path: exact, or some.
		wantSubset, wantRep int64
	}
	var fixtures []fixture
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 6; iter++ {
		objs, attrs, wantSubset := 45, 13, int64(some)
		if iter == 5 {
			objs, attrs, wantSubset = 30, 70, 0
		}
		fixtures = append(fixtures, fixture{fmt.Sprintf("random%d", iter), denseRandomContext(rng, objs, attrs), wantSubset, some})
	}
	ref, corpus, _ := bulkShapedCorpus(1000, 0)
	bulk, err := TraceContext(corpus, ref)
	if err != nil {
		t.Fatal(err)
	}
	// 2^|Y|−1 probes summed over the non-top concepts, and one probe per
	// distinct row (718) for the bottom; probing every row for every
	// concept took 588,013.
	fixtures = append(fixtures, fixture{"bulk", bulk, 16974, 718})
	fixtures = append(fixtures, fixture{"contranominal10", contranominalContext(10), some, some})
	full := denseRandomContext(rng, 30, 64)
	for a := 0; a < 64; a++ {
		full.Relate(7, a)
	}
	fixtures = append(fixtures, fixture{"fullrow64", full, some, some})

	for _, fx := range fixtures {
		m := obs.Enable()
		l, err := BuildCtx(context.Background(), fx.ctx, WithWorkers(4))
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		parents, children := linkCoversAllPairs(l)
		for i := range parents {
			insertionSortInts(parents[i])
			insertionSortInts(children[i])
		}
		for id := range l.concepts {
			if !equalInts(l.Parents(id), parents[id]) {
				t.Fatalf("%s: parents of %d: parallel %v, all-pairs %v", fx.name, id, l.Parents(id), parents[id])
			}
			if !equalInts(l.Children(id), children[id]) {
				t.Fatalf("%s: children of %d: parallel %v, all-pairs %v", fx.name, id, l.Children(id), children[id])
			}
		}
		subset := m.Counter("lattice.linkcovers.subset_probes").Value()
		rep := m.Counter("lattice.linkcovers.rep_probes").Value()
		for _, c := range []struct {
			path      string
			got, want int64
		}{{"sub-intent", subset, fx.wantSubset}, {"row", rep, fx.wantRep}} {
			if c.want == some && c.got == 0 || c.want != some && c.got != c.want {
				t.Errorf("%s (%d concepts): %d %s probes, want %d (%d: some)", fx.name, l.Len(), c.got, c.path, c.want, some)
			}
		}
	}
}

// contranominalContext is the k×k context in which object i has every
// attribute but i, so all 2^k attribute sets are closed intents.
func contranominalContext(k int) *Context {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	c := NewContext(names, names)
	for o := 0; o < k; o++ {
		for a := 0; a < k; a++ {
			if a != o {
				c.Relate(o, a)
			}
		}
	}
	return c
}

// TestBuildCancelledDuringLinkCovers exercises the pool's cancellation
// path: a context cancelled before the build reaches cover linking must
// surface ctx.Err() from both the serial and the parallel scan.
func TestBuildCancelledDuringLinkCovers(t *testing.T) {
	c := denseRandomContext(rand.New(rand.NewSource(5)), 40, 12)
	l := Build(c)
	cc, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if err := l.linkCovers(cc, workers); err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// Relink uncancelled so the lattice is left consistent.
	if err := l.linkCovers(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	checkLatticeInvariants(t, l)
}
