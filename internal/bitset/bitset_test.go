package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 || s.Has(0) || s.Has(100) {
		t.Fatalf("zero value not an empty set: %v", &s)
	}
	s.Add(130)
	if !s.Has(130) || s.Len() != 1 {
		t.Fatalf("add to zero value failed: %v", &s)
	}
}

func TestAddRemoveHas(t *testing.T) {
	s := New(10)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		s.Add(i)
		if !s.Has(i) {
			t.Errorf("Has(%d) = false after Add", i)
		}
	}
	if got := s.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	remove(s, 64)
	if s.Has(64) {
		t.Error("Has(64) after remove")
	}
	remove(s, 64) // idempotent
	remove(s, 99999)
	if got := s.Len(); got != 7 {
		t.Fatalf("Len = %d, want 7", got)
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	New(0).Add(-1)
}

func TestNegativeQueries(t *testing.T) {
	s := FromSlice([]int{1, 2})
	if s.Has(-5) {
		t.Error("Has(-5) = true")
	}
}

// remove deletes i from s, keeping s's words: removing the highest element
// leaves trailing zero words.
func remove(s *Set, i int) { s.DifferenceWith(FromSlice([]int{i})) }

func TestSetAlgebra(t *testing.T) {
	a := FromSlice([]int{1, 3, 5, 200})
	b := FromSlice([]int{3, 4, 200, 300})

	if got := Union(a, b).Elems(); !equalInts(got, []int{1, 3, 4, 5, 200, 300}) {
		t.Errorf("Union = %v", got)
	}
	if got := Intersect(a, b).Elems(); !equalInts(got, []int{3, 200}) {
		t.Errorf("Intersect = %v", got)
	}
	d := a.Clone()
	d.DifferenceWith(b)
	if got := d.Elems(); !equalInts(got, []int{1, 5}) {
		t.Errorf("DifferenceWith = %v", got)
	}
	// Originals untouched.
	if !equalInts(a.Elems(), []int{1, 3, 5, 200}) || !equalInts(b.Elems(), []int{3, 4, 200, 300}) {
		t.Error("binary ops mutated operands")
	}
}

func TestSubsetAndEqual(t *testing.T) {
	a := FromSlice([]int{1, 2})
	b := FromSlice([]int{1, 2, 300})
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Error("SubsetOf wrong")
	}
	// Equal must ignore trailing zero words.
	c := New(1024)
	c.Add(1)
	c.Add(2)
	if !a.Equal(c) || !c.Equal(a) {
		t.Error("Equal sensitive to capacity")
	}
	if !a.SubsetOf(c) || !c.SubsetOf(a) {
		t.Error("SubsetOf sensitive to capacity")
	}
	if a.Key() != c.Key() {
		t.Error("Key sensitive to capacity")
	}
}

func TestIntersects(t *testing.T) {
	a := FromSlice([]int{1, 100})
	b := FromSlice([]int{100})
	c := FromSlice([]int{2, 3})
	if !a.Intersects(b) || a.Intersects(c) || c.Intersects(&Set{}) {
		t.Error("Intersects wrong")
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := FromSlice([]int{2, 4, 6, 8})
	var seen []int
	s.Range(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !equalInts(seen, []int{2, 4}) {
		t.Errorf("Range early stop saw %v", seen)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]int{1, 2})
	b := a.Clone()
	b.Add(3)
	if a.Has(3) {
		t.Error("Clone shares storage")
	}
}

func TestClear(t *testing.T) {
	a := FromSlice([]int{1, 2, 500})
	a.Clear()
	if !a.Empty() {
		t.Error("Clear left elements")
	}
}

func TestString(t *testing.T) {
	if got := FromSlice([]int{5, 1}).String(); got != "{1, 5}" {
		t.Errorf("String = %q", got)
	}
	if got := (&Set{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// Property: algebra laws hold for random sets.
func TestQuickAlgebraLaws(t *testing.T) {
	gen := func(r *rand.Rand) *Set {
		s := &Set{}
		n := r.Intn(40)
		for i := 0; i < n; i++ {
			s.Add(r.Intn(300))
		}
		return s
	}
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(seedA, seedB, seedC int64) bool {
		a := gen(rand.New(rand.NewSource(seedA)))
		b := gen(rand.New(rand.NewSource(seedB)))
		c := gen(rand.New(rand.NewSource(seedC)))
		// Commutativity and associativity.
		if !Union(a, b).Equal(Union(b, a)) {
			return false
		}
		if !Intersect(a, b).Equal(Intersect(b, a)) {
			return false
		}
		if !Union(Union(a, b), c).Equal(Union(a, Union(b, c))) {
			return false
		}
		// Distributivity: a ∩ (b ∪ c) = (a∩b) ∪ (a∩c).
		if !Intersect(a, Union(b, c)).Equal(Union(Intersect(a, b), Intersect(a, c))) {
			return false
		}
		// De Morgan via difference: a \ (b ∪ c) = (a\b) ∩ (a\c).
		diff := func(x, y *Set) *Set {
			d := x.Clone()
			d.DifferenceWith(y)
			return d
		}
		if !diff(a, Union(b, c)).Equal(Intersect(diff(a, b), diff(a, c))) {
			return false
		}
		// Subset facts.
		if !Intersect(a, b).SubsetOf(a) || !a.SubsetOf(Union(a, b)) {
			return false
		}
		// Key equality iff Equal.
		if (a.Key() == b.Key()) != a.Equal(b) {
			return false
		}
		// Len inclusion–exclusion.
		if Union(a, b).Len()+Intersect(a, b).Len() != a.Len()+b.Len() {
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Elems round-trips through FromSlice.
func TestQuickElemsRoundTrip(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		elems := make([]int, len(raw))
		for i, v := range raw {
			elems[i] = int(v % 2048)
		}
		s := FromSlice(elems)
		got := s.Elems()
		want := dedupSorted(elems)
		return equalInts(got, want)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func dedupSorted(xs []int) []int {
	c := append([]int(nil), xs...)
	sort.Ints(c)
	out := c[:0]
	for i, v := range c {
		if i == 0 || v != c[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
