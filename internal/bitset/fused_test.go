package bitset

import (
	"math/rand"
	"testing"
)

func TestIntersectEqualsInto(t *testing.T) {
	a := FromSlice([]int{1, 3, 130})
	b := FromSlice([]int{1, 3, 64, 130, 200})
	dst := &Set{}
	if !IntersectEqualsInto(dst, a, b) {
		t.Fatalf("IntersectEqualsInto(%v ⊆ %v) = false", a, b)
	}
	if !dst.Equal(a) {
		t.Fatalf("dst = %v, want %v", dst, a)
	}
	// Not a subset: element 5 of a is missing from b.
	a.Add(5)
	if IntersectEqualsInto(dst, a, b) {
		t.Fatalf("IntersectEqualsInto(%v ⊆ %v) = true", a, b)
	}
	if !dst.Equal(Intersect(a, b)) {
		t.Fatalf("dst = %v, want %v", dst, Intersect(a, b))
	}
	// a wider than b, extra words all zero vs holding elements.
	wide := FromSlice([]int{2})
	wide.Add(500)
	wide.Remove(500) // trailing zero words
	if !IntersectEqualsInto(dst, wide, FromSlice([]int{2, 9})) {
		t.Fatalf("trailing zero words should not break subset verdict")
	}
	wide.Add(500)
	if IntersectEqualsInto(dst, wide, FromSlice([]int{2, 9})) {
		t.Fatalf("element in a beyond b's words must refute subset")
	}
}

func TestQuickIntersectEqualsIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dst := &Set{}
	for i := 0; i < 500; i++ {
		a, b := randomSet(rng, 300), randomSet(rng, 300)
		got := IntersectEqualsInto(dst, a, b)
		if want := a.SubsetOf(b); got != want {
			t.Fatalf("subset verdict: got %v want %v (a=%v b=%v)", got, want, a, b)
		}
		if want := Intersect(a, b); !dst.Equal(want) {
			t.Fatalf("intersection: got %v want %v", dst, want)
		}
	}
}

func TestHashStructural(t *testing.T) {
	a := FromSlice([]int{1, 70, 200})
	b := &Set{}
	b.Add(900)
	b.Remove(900) // trailing zero words
	b.Add(200)
	b.Add(1)
	b.Add(70)
	if a.Hash() != b.Hash() {
		t.Fatalf("equal sets hash differently: %x vs %x", a.Hash(), b.Hash())
	}
	if (&Set{}).Hash() != New(1000).Hash() {
		t.Fatalf("empty sets hash differently")
	}
	rng := rand.New(rand.NewSource(11))
	collisions := 0
	seen := map[uint64]*Set{}
	for i := 0; i < 2000; i++ {
		s := randomSet(rng, 256)
		if prev, ok := seen[s.Hash()]; ok && !prev.Equal(s) {
			collisions++
		}
		seen[s.Hash()] = s
	}
	if collisions > 2 {
		t.Fatalf("%d hash collisions across 2000 random sets", collisions)
	}
}

// TestHashWordMatchesHash pins the contract the concept package's one-word
// index probes rely on: HashWord(w) equals Set.Hash() for any set whose
// content fits one word, including w == 0 (the empty set).
func TestHashWordMatchesHash(t *testing.T) {
	if HashWord(0) != (&Set{}).Hash() {
		t.Fatalf("HashWord(0) = %x, empty Hash = %x", HashWord(0), (&Set{}).Hash())
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		s := randomSet(rng, 64)
		var w uint64
		if ws := s.Words(); len(ws) > 0 {
			w = ws[0]
		}
		if HashWord(w) != s.Hash() {
			t.Fatalf("HashWord(%#x) = %x, Hash = %x", w, HashWord(w), s.Hash())
		}
	}
}

func TestLenCache(t *testing.T) {
	s := FromSlice([]int{0, 63, 64, 200})
	if s.Len() != 4 || s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	s.Add(5)
	if s.Len() != 5 {
		t.Fatalf("Len after Add = %d, want 5", s.Len())
	}
	s.Remove(63)
	if s.Len() != 4 {
		t.Fatalf("Len after Remove = %d, want 4", s.Len())
	}
	s.IntersectWith(FromSlice([]int{0, 5}))
	if s.Len() != 2 {
		t.Fatalf("Len after IntersectWith = %d, want 2", s.Len())
	}
	s.UnionWith(FromSlice([]int{100}))
	if s.Len() != 3 {
		t.Fatalf("Len after UnionWith = %d, want 3", s.Len())
	}
	s.DifferenceWith(FromSlice([]int{0}))
	if s.Len() != 2 {
		t.Fatalf("Len after DifferenceWith = %d, want 2", s.Len())
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatalf("Len after Clear = %d, want 0", s.Len())
	}
	if Full(129).Len() != 129 {
		t.Fatalf("Full(129).Len = %d", Full(129).Len())
	}
	c := FromSlice([]int{9, 90}).Clone()
	if c.Len() != 2 {
		t.Fatalf("Clone Len = %d, want 2", c.Len())
	}
	sc := (&Set{}).CopyFrom(c)
	if sc.Len() != 2 {
		t.Fatalf("CopyFrom Len = %d, want 2", sc.Len())
	}
	dst := &Set{}
	IntersectInto(dst, c, FromSlice([]int{9}))
	if dst.Len() != 1 {
		t.Fatalf("IntersectInto Len = %d, want 1", dst.Len())
	}
}

func TestEnsureReuseZeroesStaleWords(t *testing.T) {
	// Truncate a set via IntersectInto (shrinks len, keeps cap holding old
	// data), then grow it again with Add: the exposed words must read zero.
	s := FromSlice([]int{200})
	IntersectInto(s, s, FromSlice([]int{1})) // s now empty, cap still covers word 3
	s.Add(300)
	if got := s.Elems(); len(got) != 1 || got[0] != 300 {
		t.Fatalf("stale words leaked through regrowth: %v", s)
	}
}

func TestAppendElems32(t *testing.T) {
	s := FromSlice([]int{0, 63, 64, 129, 500})
	got := s.AppendElems32(nil)
	want := []int32{0, 63, 64, 129, 500}
	if len(got) != len(want) {
		t.Fatalf("AppendElems32 = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendElems32 = %v, want %v", got, want)
		}
	}
}

func TestArena(t *testing.T) {
	a := NewArena()
	// Sets from the same slab must be independent.
	x := a.Set(64, 256)
	y := a.Set(64, 256)
	x.Add(3)
	y.Add(7)
	if x.Has(7) || y.Has(3) {
		t.Fatalf("arena sets alias: x=%v y=%v", x, y)
	}
	// Growth within reserved capacity stays correct.
	x.Add(255)
	if !x.Has(3) || !x.Has(255) || x.Len() != 2 {
		t.Fatalf("arena set after in-cap growth: %v", x)
	}
	if y.Has(255) {
		t.Fatalf("x's growth scribbled on y: %v", y)
	}
	// Growth beyond reserved capacity must not corrupt later slab sets.
	z := a.Set(64, 64)
	z.Add(1000)
	w := a.Set(64, 64)
	w.Add(2)
	if !z.Has(1000) || z.Has(2) || !w.Has(2) {
		t.Fatalf("out-of-cap growth corrupted slab: z=%v w=%v", z, w)
	}
	// Clone preserves contents and Len cache.
	src := FromSlice([]int{5, 77})
	src.Len()
	c := a.Clone(src)
	if !c.Equal(src) || c.Len() != 2 {
		t.Fatalf("arena clone = %v, want %v", c, src)
	}
	// Many allocations spanning multiple slabs stay disjoint.
	sets := make([]*Set, 3000)
	for i := range sets {
		sets[i] = a.Set(128, 128)
		sets[i].Add(i % 128)
	}
	for i, s := range sets {
		if s.Len() != 1 || !s.Has(i%128) {
			t.Fatalf("slab set %d corrupted: %v", i, s)
		}
	}
	// Int32s slices are disjoint and append-safe.
	p := a.Int32s(4)
	q := a.Int32s(4)
	p = append(p, 1, 2, 3, 4)
	q = append(q, 9)
	if p[0] != 1 || q[0] != 9 || len(p) != 4 {
		t.Fatalf("arena int32 slices alias: p=%v q=%v", p, q)
	}
	p = append(p, 5) // beyond cap: must reallocate, not scribble on q
	if q[0] != 9 {
		t.Fatalf("append past cap corrupted neighbour: q=%v", q)
	}
}

func BenchmarkBitsetIntersectEqualsInto(b *testing.B) {
	x, y := benchSets(1 << 12)
	dst := &Set{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectEqualsInto(dst, x, y)
	}
}

func BenchmarkBitsetHash(b *testing.B) {
	x, _ := benchSets(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= x.Hash()
	}
	_ = sink
}

func BenchmarkBitsetLenCached(b *testing.B) {
	x, _ := benchSets(1 << 12)
	x.Len()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += x.Len()
	}
	_ = sink
}

func BenchmarkArenaSet(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewArena()
		for j := 0; j < 1000; j++ {
			a.Set(512, 512).Add(j % 512)
		}
	}
}
