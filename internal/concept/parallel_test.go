package concept

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// denseRandomContext builds a random context in which each object has
// each attribute with probability 1/3.
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

// TestParallelLinkCoversMatchesOracle cross-checks the cover scan against
// the independent all-pairs oracle, and checks that each fixture reaches
// the candidate paths it is there for (coverGen's probe counters):
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
		l := Build(fx.ctx)
		obs.Disable()
		parents, children := linkCoversAllPairs(l)
		for i := range parents {
			insertionSortInts(parents[i])
			insertionSortInts(children[i])
		}
		for id := range l.concepts {
			if !equalInts(l.Parents(id), parents[id]) {
				t.Fatalf("%s: parents of %d: linkCovers %v, all-pairs %v", fx.name, id, l.Parents(id), parents[id])
			}
			if !equalInts(l.Children(id), children[id]) {
				t.Fatalf("%s: children of %d: linkCovers %v, all-pairs %v", fx.name, id, l.Children(id), children[id])
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

// TestBuildCancelledDuringLinkCovers exercises the cover scan's
// cancellation path: a relink under a cancelled context must surface
// ctx.Err(), and an uncancelled relink must then leave a valid lattice.
func TestBuildCancelledDuringLinkCovers(t *testing.T) {
	c := denseRandomContext(rand.New(rand.NewSource(5)), 40, 12)
	l := Build(c)
	cc, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.relink(cc); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Relink uncancelled so the lattice is left consistent.
	if err := l.relink(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkLatticeInvariants(t, l)
}
