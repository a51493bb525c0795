// Golden package for the poolarena analyzer: bitsets carved from a
// bitset.Arena must stay within the build that allocated the arena.
package poolarena

import (
	"repro/internal/bitset"
)

// leaked pins a whole arena slab for the process lifetime.
var leaked *bitset.Set

type lattice struct {
	arena   *bitset.Arena
	extents []*bitset.Set
}

// buildOK allocates from its own arena and stores the results — and the
// arena — in the structure that owns both. Nothing escapes.
func buildOK(n int) *lattice {
	a := bitset.NewArena()
	l := &lattice{arena: a}
	for i := 0; i < n; i++ {
		s := a.Set(64, 64)
		s.Add(i)
		l.extents = append(l.extents, s)
	}
	return l
}

// helperOK takes the arena as a parameter: the builder-helper convention.
// Returning an arena-backed set hands it back to the arena's owner.
func helperOK(a *bitset.Arena, src *bitset.Set) *bitset.Set {
	out := a.Clone(src)
	out.Add(1)
	return out
}

// valueCopiesOK returns plain values derived from an arena set; copies do
// not alias arena memory.
func valueCopiesOK(a *bitset.Arena) int {
	s := a.Set(128, 128)
	s.Add(7)
	return s.Len()
}

// incrementalOK is the incremental-maintenance shape: a later mutation
// carves new sets — and regrows existing ones via EnsureBits — from the
// arena the structure already owns, so the new allocations share the
// owner's lifetime. Nothing escapes.
func (l *lattice) incrementalOK(numObj int) {
	for _, s := range l.extents {
		l.arena.EnsureBits(s, numObj)
	}
	fresh := l.arena.Set(numObj, numObj)
	fresh.Add(numObj - 1)
	l.extents = append(l.extents, fresh)
}

// returnEscape returns an arena-backed set from a function whose caller
// never sees the arena.
func returnEscape() *bitset.Set {
	a := bitset.NewArena()
	s := a.Set(64, 64)
	return s // want `arena-backed s escapes via return from a function without an arena parameter`
}

// aliasEscape launders the set through an alias before returning it.
func aliasEscape() *bitset.Set {
	a := bitset.NewArena()
	s := a.Set(64, 64)
	alias := s
	return alias // want `arena-backed alias escapes via return from a function without an arena parameter`
}

// globalEscape pins the arena in a package-level variable.
func globalEscape() {
	a := bitset.NewArena()
	s := a.Set(64, 64)
	leaked = s // want `arena-backed s is stored in package-level leaked`
}

// goroutineEscape hands an arena set to a goroutine; arena allocation and
// the sets it produces are single-goroutine state during a build.
func goroutineEscape(done chan<- int) {
	a := bitset.NewArena()
	s := a.Set(64, 64)
	go func() { // want `arena-backed s is captured by a goroutine`
		done <- s.Len()
	}()
}

// methodEscape hands out arena memory from the owning structure to
// arbitrary callers.
func (l *lattice) methodEscape(src *bitset.Set) *bitset.Set {
	c := l.arena.Clone(src)
	return c // want `arena-backed c escapes via return from a function without an arena parameter`
}

// suppressedEscape documents an intentional hand-off.
func suppressedEscape() *bitset.Set {
	a := bitset.NewArena()
	s := a.Set(64, 64)
	//cablevet:ignore poolarena ownership transferred with the arena by contract
	return s
}
