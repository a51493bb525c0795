package concept

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

// These properties drive the FCA core through testing/quick: each check
// receives random seeds/shapes from quick's generator and derives a random
// context from them.

func contextFromSeed(seed int64, objs, attrs uint8) *Context {
	rng := rand.New(rand.NewSource(seed))
	no := 1 + int(objs%8)
	na := 1 + int(attrs%8)
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = prefix + string(rune('0'+i))
		}
		return out
	}
	c := NewContext(names("o", no), names("a", na))
	for o := 0; o < no; o++ {
		for a := 0; a < na; a++ {
			if rng.Intn(3) == 0 {
				c.Relate(o, a)
			}
		}
	}
	return c
}

func TestQuickBuildersAgree(t *testing.T) {
	err := quick.Check(func(seed int64, objs, attrs uint8) bool {
		c := contextFromSeed(seed, objs, attrs)
		return equalLattices(Build(c), BuildNaive(c))
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickConceptsAreMaximalRectangles(t *testing.T) {
	err := quick.Check(func(seed int64, objs, attrs uint8) bool {
		c := contextFromSeed(seed, objs, attrs)
		l := Build(c)
		for _, cc := range l.Concepts() {
			if !c.IsConcept(cc.Extent, cc.Intent) {
				return false
			}
			// Maximality: no object outside the extent has every intent
			// attribute, and dually for attributes.
			violated := false
			for o := 0; o < c.NumObjects(); o++ {
				if !cc.Extent.Has(o) && cc.Intent.SubsetOf(c.Attributes(o)) {
					violated = true
				}
			}
			for a := 0; a < c.NumAttributes(); a++ {
				if !cc.Intent.Has(a) && cc.Extent.SubsetOf(c.cols[a]) {
					violated = true
				}
			}
			if violated {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 120})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickLatticeAbsorption(t *testing.T) {
	// Lattice absorption laws: meet(a, join(a,b)) == a and
	// join(a, meet(a,b)) == a.
	err := quick.Check(func(seed int64, objs, attrs uint8, ai, bi uint8) bool {
		c := contextFromSeed(seed, objs, attrs)
		l := Build(c)
		a := int(ai) % l.Len()
		b := int(bi) % l.Len()
		j, ok := l.Join(a, b)
		if !ok {
			return false
		}
		if m, ok := l.Meet(a, j); !ok || m != a {
			return false
		}
		m, ok := l.Meet(a, b)
		if !ok {
			return false
		}
		j2, ok := l.Join(a, m)
		return ok && j2 == a
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickSimilarityAntitone(t *testing.T) {
	// Adding objects to a set can only lower similarity.
	err := quick.Check(func(seed int64, objs, attrs uint8, members []uint8, extra uint8) bool {
		c := contextFromSeed(seed, objs, attrs)
		x := bitset.New(c.NumObjects())
		for _, m := range members {
			x.Add(int(m) % c.NumObjects())
		}
		before := c.Similarity(x)
		x.Add(int(extra) % c.NumObjects())
		return c.Similarity(x) <= before
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
