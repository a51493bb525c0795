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
	remove(wide, 500) // trailing zero words
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
	remove(b, 900) // trailing zero words
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
	remove(s, 63)
	if s.Len() != 4 {
		t.Fatalf("Len after remove = %d, want 4", s.Len())
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
}

// TestNewArenaFor pins the sizing of an arena's slabs: the first holds
// exactly the words and headers asked for, capped at NewArena's first
// slab, and each later one doubles the one before it, up to the sizes
// NewArena's slabs grow to.
func TestNewArenaFor(t *testing.T) {
	a := NewArenaFor(40, 4)
	if cap(a.words) != 40 || cap(a.sets) != 4 {
		t.Fatalf("first slabs hold %d words and %d headers, want 40 and 4", cap(a.words), cap(a.sets))
	}
	for i := 0; i < 4; i++ {
		a.Set(640, 640)
	}
	if len(a.words) != 40 || cap(a.words) != 40 || len(a.sets) != 4 || cap(a.sets) != 4 {
		t.Fatalf("four 10-word sets left slabs of %d/%d words and %d/%d headers, want the first slabs full",
			len(a.words), cap(a.words), len(a.sets), cap(a.sets))
	}
	a.Set(64, 64)
	if cap(a.words) != 80 || cap(a.sets) != 8 {
		t.Fatalf("second slabs hold %d words and %d headers, want 80 and 8", cap(a.words), cap(a.sets))
	}
	// Fill each slab and carve one more: the words double past NewArena's
	// first slab, the headers up to their chunk and no further.
	wantWords := []int{160, 320, 640, 1280, 2560, 5120}
	wantSets := []int{16, 32, 64, 128, 256, 256}
	for i := range wantWords {
		a.allocWords(cap(a.words) - len(a.words))
		a.allocWords(1)
		a.sets = a.sets[:cap(a.sets)]
		a.header()
		if cap(a.words) != wantWords[i] || cap(a.sets) != wantSets[i] {
			t.Fatalf("slab %d holds %d words and %d headers, want %d and %d", i+3, cap(a.words), cap(a.sets), wantWords[i], wantSets[i])
		}
	}
	if got := nextSlab(arenaMaxWords, arenaMinWords, arenaMaxWords); got != arenaMaxWords {
		t.Fatalf("the slab after a full-size one holds %d words, want %d", got, arenaMaxWords)
	}
	b := NewArena()
	b.Set(64, 64)
	if cap(b.words) != arenaMinWords || cap(b.sets) != arenaSetChunk {
		t.Fatalf("NewArena's first slabs hold %d words and %d headers, want %d and %d", cap(b.words), cap(b.sets), arenaMinWords, arenaSetChunk)
	}
	if big := NewArenaFor(1<<30, 1<<30); cap(big.words) != arenaMinWords || cap(big.sets) != arenaSetChunk {
		t.Fatalf("capped first slabs hold %d words and %d headers, want %d and %d", cap(big.words), cap(big.sets), arenaMinWords, arenaSetChunk)
	}
	if empty := NewArenaFor(0, 0); empty.words != nil || empty.sets != nil {
		t.Fatal("NewArenaFor(0, 0) allocated slabs")
	}
}

// TestTable pins Table's sets as independent, empty, covering the asked
// universe, and capacity-clamped: a set grown past its width leaves its
// neighbour alone.
func TestTable(t *testing.T) {
	sets := Table(3, 70)
	for i := range sets {
		if !sets[i].Empty() || len(sets[i].words) != 2 || cap(sets[i].words) != 2 {
			t.Fatalf("set %d: %v with %d words of capacity %d, want empty with 2 of 2", i, &sets[i], len(sets[i].words), cap(sets[i].words))
		}
	}
	sets[0].Add(69)
	sets[1].Add(0)
	sets[0].Add(200)
	sets[2].Add(1)
	if got := sets[0].String(); got != "{69, 200}" {
		t.Fatalf("grown set = %s, want {69, 200}", got)
	}
	if got := sets[1].String(); got != "{0}" {
		t.Fatalf("neighbour of the grown set = %s, want {0}", got)
	}
	if got := sets[2].String(); got != "{1}" {
		t.Fatalf("last set = %s, want {1}", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { Table(1000, 24) }); allocs != 2 {
		t.Fatalf("Table(1000, 24) allocates %.0f objects, want 2", allocs)
	}
	if empty := Table(4, 0); len(empty) != 4 || empty[0].words != nil {
		t.Fatal("Table over an empty universe cut words")
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
