package bitset

import (
	"math/rand"
	"testing"
)

func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		s := Full(n)
		if s.Len() != n {
			t.Errorf("Full(%d).Len() = %d", n, s.Len())
		}
		if n > 0 && (!s.Has(0) || !s.Has(n-1) || s.Has(n)) {
			t.Errorf("Full(%d) has wrong membership at the edges", n)
		}
		// Must agree with the Add-loop construction it replaces.
		ref := New(n)
		for i := 0; i < n; i++ {
			ref.Add(i)
		}
		if !s.Equal(ref) {
			t.Errorf("Full(%d) != Add loop", n)
		}
	}
	if Full(-3).Len() != 0 {
		t.Error("Full of negative n not empty")
	}
}

func TestFillFull(t *testing.T) {
	s := FromSlice([]int{5, 200})
	for _, n := range []int{70, 3, 0, 129} {
		s.FillFull(n)
		if !s.Equal(Full(n)) {
			t.Errorf("FillFull(%d) != Full(%d): %s", n, n, s)
		}
	}
}

func TestIntersectInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		a, b := randomSet(rng, 300), randomSet(rng, 300)
		dst := randomSet(rng, 300) // dirty scratch must not leak through
		got := IntersectInto(dst, a, b)
		if got != dst {
			t.Fatal("IntersectInto did not return dst")
		}
		if want := Intersect(a, b); !got.Equal(want) {
			t.Fatalf("IntersectInto = %s, want %s", got, want)
		}
		// Aliasing: dst == a.
		aa := a.Clone()
		if !IntersectInto(aa, aa, b).Equal(Intersect(a, b)) {
			t.Fatal("IntersectInto aliased with a is wrong")
		}
	}
}

// TestKeyCanonical pins a key's bytes, the little-endian words up to the
// last nonzero one, and requires that trailing zero words never change it.
func TestKeyCanonical(t *testing.T) {
	if got, want := FromSlice([]int{0, 9, 64}).Key(), "\x01\x02\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"; got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
	if (&Set{}).Key() != "" {
		t.Fatal("the empty set's key is not empty")
	}
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 200; iter++ {
		s := randomSet(rng, 300)
		padded := s.Clone()
		padded.Add(1000)
		remove(padded, 1000)
		if padded.Key() != s.Key() {
			t.Fatalf("key not canonical under trailing zero words")
		}
	}
}

func randomSet(rng *rand.Rand, max int) *Set {
	s := &Set{}
	for n := rng.Intn(40); n > 0; n-- {
		s.Add(rng.Intn(max))
	}
	return s
}

// --- kernel benchmarks ---------------------------------------------------

func benchSets(n int) (*Set, *Set) {
	rng := rand.New(rand.NewSource(1))
	a, b := New(n), New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) != 0 {
			a.Add(i)
		}
		if rng.Intn(3) != 0 {
			b.Add(i)
		}
	}
	return a, b
}

func BenchmarkBitsetFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Full(512).Len() != 512 {
			b.Fatal("wrong")
		}
	}
}

func BenchmarkBitsetFullAddLoop(b *testing.B) {
	// The construction Full replaces.
	for i := 0; i < b.N; i++ {
		s := New(512)
		for j := 0; j < 512; j++ {
			s.Add(j)
		}
	}
}

func BenchmarkBitsetIntersect(b *testing.B) {
	x, y := benchSets(512)
	for i := 0; i < b.N; i++ {
		Intersect(x, y)
	}
}

func BenchmarkBitsetIntersectInto(b *testing.B) {
	x, y := benchSets(512)
	dst := &Set{}
	for i := 0; i < b.N; i++ {
		IntersectInto(dst, x, y)
	}
}

func BenchmarkBitsetKey(b *testing.B) {
	x, _ := benchSets(512)
	for i := 0; i < b.N; i++ {
		if len(x.Key()) == 0 {
			b.Fatal("empty key")
		}
	}
}
