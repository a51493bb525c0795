package bitset

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestWordsTrimmed requires Words to hold exactly the set's elements,
// element i*64+b as bit b of word i, with no trailing zero word.
func TestWordsTrimmed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 100; round++ {
		s := &Set{}
		for e := 0; e < 300; e++ {
			if rng.Intn(4) == 0 {
				s.Add(e)
			}
		}
		s.Add(1000)
		remove(s, 1000)
		ws := s.Words()
		if len(ws) > 0 && ws[len(ws)-1] == 0 {
			t.Fatal("Words returned an untrimmed slice")
		}
		for e := 0; e < 64*len(ws)+64; e++ {
			if in := e < 64*len(ws) && ws[e/64]>>(e%64)&1 == 1; in != s.Has(e) {
				t.Fatalf("Words has element %d = %v, the set %v", e, in, s.Has(e))
			}
		}
	}
	empty := &Set{}
	if ws := empty.Words(); len(ws) != 0 {
		t.Fatalf("empty set Words: %v", ws)
	}
}

func TestArenaEnsureBits(t *testing.T) {
	a := NewArena()
	// In-place growth within the carve's capacity.
	s := a.Set(10, 200)
	s.Add(5)
	a.EnsureBits(s, 100)
	if !s.Has(5) || s.Has(64) || s.Len() != 1 {
		t.Fatalf("in-place EnsureBits corrupted the set: %v", s)
	}
	s.Add(99)
	if !reflect.DeepEqual(s.Elems(), []int{5, 99}) {
		t.Fatalf("post-grow Add: %v", s.Elems())
	}
	// Growth past the carve reallocates within the arena and preserves
	// contents.
	big := a.Set(64, 64)
	big.Add(3)
	big.Add(63)
	a.EnsureBits(big, 10_000)
	if !reflect.DeepEqual(big.Elems(), []int{3, 63}) {
		t.Fatalf("reallocating EnsureBits lost elements: %v", big.Elems())
	}
	big.Add(9_999)
	if big.Len() != 3 {
		t.Fatalf("post-realloc Add: %v", big.Elems())
	}
	// Exposed words must come back zeroed even after FillFull dirtied the
	// carve's full capacity.
	d := a.Set(128, 256)
	d.FillFull(256) // dirties all four words
	d.FillFull(10)  // shrink back: words 1..3 now stale within cap
	a.EnsureBits(d, 256)
	if d.Len() != 10 {
		t.Fatalf("EnsureBits exposed stale words: %v", d.Elems())
	}
}

// TestArenaEnsureBitsDoubles grows sets one element at a time, as a
// lattice's extents gain objects, and requires the words the arena carves
// for them to stay within a constant factor of the words they end with.
// Carving only the words a set needs would re-carve it once per word it
// gains, about n²/2 words for n.
func TestArenaEnsureBitsDoubles(t *testing.T) {
	const sets, elems = 8, 256 * wordBits
	a := NewArena()
	// slab returns the current word slab's first element, which changes
	// exactly when the arena starts a new slab.
	slab := func() *uint64 {
		if cap(a.words) == 0 {
			return nil
		}
		return &a.words[:1][0]
	}
	carved := 0
	ss := make([]*Set, sets)
	for i := range ss {
		ss[i] = a.Set(1, 1)
		carved++
	}
	for e := 0; e < elems; e++ {
		for _, s := range ss {
			before, first := len(a.words), slab()
			a.EnsureBits(s, e+1)
			if slab() != first {
				carved += len(a.words)
			} else {
				carved += len(a.words) - before
			}
			s.Add(e)
		}
	}
	final := 0
	for _, s := range ss {
		if s.Len() != elems {
			t.Fatalf("a grown set holds %d elements, want %d", s.Len(), elems)
		}
		final += s.StorageWords()
	}
	if carved > 3*final {
		t.Fatalf("growing %d sets to %d words each carved %d words, want at most %d", sets, final/sets, carved, 3*final)
	}
}
