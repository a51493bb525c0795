package fa

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/event"
)

// Cursor is a persistent-frontier stepping handle over a compiled plan:
// where Sim.Accepts consumes a whole trace per call, a Cursor holds the
// reachable-state frontier between calls, so an online checker can feed
// events one at a time as they arrive on a stream. Memory is bounded by
// the automaton (two frontier bitsets and an event-rendering buffer) and
// independent of how many events have been consumed; steady-state Step
// calls allocate nothing.
//
// A Cursor is owned by one caller at a time — it is deliberately not
// goroutine-safe (each stream owns its cursor); the underlying Sim stays
// shared and immutable.
type Cursor struct {
	sim *Sim
	cur *bitset.Set // current frontier
	nxt *bitset.Set // scratch successor frontier
	buf []byte      // event rendering buffer for symbol lookup
}

// NewCursor returns a cursor positioned at the automaton's start states.
func (s *Sim) NewCursor() *Cursor {
	c := &Cursor{
		sim: s,
		cur: bitset.New(s.numStates),
		nxt: bitset.New(s.numStates),
	}
	c.cur.CopyFrom(s.start)
	return c
}

// Reset returns the cursor to the start states, as if no event had been
// consumed.
func (c *Cursor) Reset() { c.cur.CopyFrom(c.sim.start) }

// Step consumes one event, advancing the frontier, and reports whether
// any run survives. Once the frontier is empty every later Step also
// returns false; callers detecting a violation Reset to resume checking.
func (c *Cursor) Step(e event.Event) bool {
	c.buf = e.AppendString(c.buf[:0])
	id, ok := c.sim.interner.LookupKey(c.buf)
	if !ok {
		id = -1 // out-of-alphabet events match only wildcard rows
	}
	c.sim.stepInto(c.nxt, c.cur, int32(id))
	c.cur, c.nxt = c.nxt, c.cur
	return !c.cur.Empty()
}

// Accepting reports whether some surviving run is in an accepting state —
// i.e. whether the events consumed so far form a word of the language.
func (c *Cursor) Accepting() bool { return c.cur.Intersects(c.sim.accept) }

// States appends the frontier's state IDs to dst in ascending order and
// returns the extended slice; persistence uses it to externalize the
// cursor without exposing the bitset.
func (c *Cursor) States(dst []int) []int {
	c.cur.Range(func(s int) bool {
		dst = append(dst, s)
		return true
	})
	return dst
}

// SetStates replaces the frontier with exactly the given states; the
// inverse of States for restoring a persisted cursor. A state outside the
// automaton leaves the cursor unchanged and returns an error.
func (c *Cursor) SetStates(states []int) error {
	for _, s := range states {
		if s < 0 || s >= c.sim.numStates {
			return fmt.Errorf("fa: cursor state %d out of range [0,%d)", s, c.sim.numStates)
		}
	}
	c.cur.Clear()
	for _, s := range states {
		c.cur.Add(s)
	}
	return nil
}

// Sim returns the compiled plan the cursor steps over.
func (c *Cursor) Sim() *Sim { return c.sim }
