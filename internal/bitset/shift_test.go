package bitset

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestWordsLoadWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 100; round++ {
		s := &Set{}
		for e := 0; e < 300; e++ {
			if rng.Intn(4) == 0 {
				s.Add(e)
			}
		}
		ws := s.Words()
		if len(ws) > 0 && ws[len(ws)-1] == 0 {
			t.Fatal("Words returned an untrimmed slice")
		}
		got := &Set{}
		got.LoadWords(ws)
		if !got.Equal(s) {
			t.Fatalf("LoadWords(Words(s)) != s: %v vs %v", got, s)
		}
		// Loading into a wider dirty set must zero the tail.
		wide := Full(1024)
		wide.LoadWords(ws)
		if !wide.Equal(s) {
			t.Fatalf("LoadWords into dirty wide set: %v vs %v", wide, s)
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
