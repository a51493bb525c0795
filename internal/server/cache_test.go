package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/trace"
)

// cacheKeyPerClass is cacheKey as it hashed each class before the key
// buffer was shared: the FA text, then per class an 8-byte length and a
// fresh copy of the key.
func cacheKeyPerClass(set *trace.Set, ref *fa.FA) string {
	h := sha256.New()
	var b strings.Builder
	if err := fa.Write(&b, ref); err == nil {
		h.Write([]byte(b.String()))
	}
	var n [8]byte
	for i := 0; i < set.NumClasses(); i++ {
		k := set.ClassKey(i)
		binary.LittleEndian.PutUint64(n[:], uint64(len(k)))
		h.Write(n[:])
		h.Write([]byte(k))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCacheKeyUnchanged pins cacheKey to the per-class hashing it replaced,
// so every cached lattice keeps its key, and checks that the key costs no
// allocation per class: 1000 classes allocate no more than 10 do.
func TestCacheKeyUnchanged(t *testing.T) {
	alpha := make([]event.Event, 6)
	for i := range alpha {
		alpha[i] = event.Call(fmt.Sprintf("op%d", i), "X")
	}
	ref := fa.Unordered(alpha)
	corpus := func(classes int) *trace.Set {
		set := &trace.Set{}
		for i := 0; set.NumClasses() < classes; i++ {
			evs := make([]string, 1+i%7)
			for j := range evs {
				evs[j] = fmt.Sprintf("op%d(X)", (i/(j+1)+j)%len(alpha))
			}
			set.Add(trace.ParseEvents(fmt.Sprintf("t%d", i), evs...))
		}
		return set
	}
	small, big := corpus(10), corpus(1000)
	for _, set := range []*trace.Set{trace.NewSet(), small, big} {
		if got, want := cacheKey(set, ref), cacheKeyPerClass(set, ref); got != want {
			t.Fatalf("%d classes: key %s, want %s", set.NumClasses(), got, want)
		}
	}
	few := testing.AllocsPerRun(5, func() { cacheKey(small, ref) })
	many := testing.AllocsPerRun(5, func() { cacheKey(big, ref) })
	if many > few {
		t.Fatalf("cacheKey allocates %.0f objects for 1000 classes and %.0f for 10, want no more for 1000", many, few)
	}
}
