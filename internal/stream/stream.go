// Package stream implements online (runtime) verification of temporal
// specifications: a Checker consumes one event at a time from a live
// stream and reports a Violation the moment no run of the specification
// automaton survives — the streaming counterpart of internal/verify's
// batch checker.
//
// The paper debugs specifications against batch trace corpora; the
// production workload this package serves is the runtime one (latency
// SLAs, ordering, eventual-consistency properties checked against live
// event streams). Memory per stream is bounded and independent of stream
// length: the checker retains only the automaton frontier (a bitset over
// states, via fa.Cursor) plus a configurable violation-window ring buffer
// of recent events. When a violation fires, the ring's contents become
// the windowed counterexample trace — enough context to debug with, never
// the whole stream. Violation traces feed straight into live Cable
// sessions (cabled's /v1/streams endpoints), so the concept lattice stays
// current while streams run.
//
// After a violation the checker resets to the automaton's start states
// and keeps checking, so one long-lived stream can surface many
// violations. Finalize closes the stream: a stream with consumed events
// whose frontier holds no accepting state is an incomplete protocol
// instance (e.g. a resource never released) and yields one final
// violation.
package stream

import (
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/trace"
)

// DefaultWindow is the violation ring-buffer capacity when Config leaves
// Window unset: large enough to show a protocol instance around the
// offending event, small enough that thousands of idle streams stay
// cheap.
const DefaultWindow = 32

// MaxWindow caps per-stream memory against misconfigured clients.
const MaxWindow = 4096

// Config sizes one checker.
type Config struct {
	// Window is the ring-buffer capacity: the maximum number of trailing
	// events retained for the counterexample trace. 0 means
	// DefaultWindow; values above MaxWindow are clamped.
	Window int
}

// window resolves the configured ring capacity.
func (c Config) window() int {
	switch {
	case c.Window <= 0:
		return DefaultWindow
	case c.Window > MaxWindow:
		return MaxWindow
	default:
		return c.Window
	}
}

// Violation is one detected specification violation on a stream.
type Violation struct {
	// Trace is the windowed counterexample: the last ≤Window events up to
	// and including the offending one (or up to the end of the stream for
	// incomplete finalizations). Its ID is left empty; callers stamp
	// provenance.
	Trace trace.Trace
	// At is the offending event's index within Trace.Events, or
	// len(Trace.Events) when the stream finalized without reaching an
	// accepting state (an incomplete protocol instance).
	At int
	// Offset is the offending event's 0-based position in the whole
	// stream (or the stream's event count for incomplete finalizations).
	Offset uint64
	// Truncated reports that the window overflowed since the last reset,
	// so Trace is a suffix of the violating behaviour rather than all of
	// it.
	Truncated bool
}

// Incomplete reports whether this is a finalization violation (the stream
// ended mid-protocol) rather than a dead-frontier rejection.
func (v Violation) Incomplete() bool { return v.At >= len(v.Trace.Events) }

// String renders the violation like verify.Violation does, flagging
// truncated windows.
func (v Violation) String() string {
	suffix := ""
	if v.Truncated {
		suffix = " (window truncated)"
	}
	if v.Incomplete() {
		return fmt.Sprintf("%s <incomplete at end>%s", v.Trace.Key(), suffix)
	}
	return fmt.Sprintf("%s <violates at event %d: %s>%s", v.Trace.Key(), v.At, v.Trace.Events[v.At], suffix)
}

// Checker is one stream's online verifier. It is not goroutine-safe:
// each stream owns its checker and serializes every call on it itself,
// State's included (State rotates the ring); the compiled fa.Sim
// underneath is shared and immutable, so any number of checkers can wrap
// one plan.
type Checker struct {
	cur    *fa.Cursor
	window int

	// line is Ingest's scanner buffer, kept so that a batch does not
	// allocate one; frontier is State's buffer for the frontier's IDs.
	line     []byte
	frontier []int

	// ring is the violation window: a circular buffer of the most recent
	// events since the last reset. start indexes the oldest retained
	// event; n is the number retained.
	ring  []event.Event
	start int
	n     int

	events      uint64 // total events consumed
	sinceReset  uint64 // events consumed since open or the last violation
	truncated   bool   // ring overflowed since the last reset
	truncations uint64 // total events evicted from the ring
	violations  int
	finalized   bool
}

// New returns a checker positioned at the specification's start states.
func New(sim *fa.Sim, cfg Config) *Checker {
	w := cfg.window()
	return &Checker{
		cur:    sim.NewCursor(),
		window: w,
		ring:   make([]event.Event, w),
	}
}

// Window returns the configured ring capacity.
func (c *Checker) Window() int { return c.window }

// Events returns the total number of events consumed.
func (c *Checker) Events() uint64 { return c.events }

// Violations returns how many violations the checker has emitted,
// including a final incomplete-stream violation.
func (c *Checker) Violations() int { return c.violations }

// Truncations returns how many events have been evicted from violation
// windows over the checker's lifetime.
func (c *Checker) Truncations() uint64 { return c.truncations }

// Accepting reports whether the current frontier contains an accepting
// state — closing the stream right now would not raise an
// incomplete-protocol violation.
func (c *Checker) Accepting() bool { return c.cur.Accepting() }

// push appends an event to the ring, evicting the oldest when full.
func (c *Checker) push(e event.Event) {
	if c.n == c.window {
		c.ring[c.start] = e
		c.start = (c.start + 1) % c.window
		c.truncated = true
		c.truncations++
		return
	}
	c.ring[(c.start+c.n)%c.window] = e
	c.n++
}

// snapshotWindow copies the ring's contents in stream order.
func (c *Checker) snapshotWindow() []event.Event {
	out := make([]event.Event, c.n)
	for i := 0; i < c.n; i++ {
		out[i] = c.ring[(c.start+i)%c.window]
	}
	return out
}

// reset returns the checker to the start states with an empty window;
// called after each violation so checking continues.
func (c *Checker) reset() {
	c.cur.Reset()
	c.start, c.n = 0, 0
	c.sinceReset = 0
	c.truncated = false
}

// Feed consumes one event. It returns a violation (and true) the moment
// the specification's frontier empties — no run of the automaton can
// extend the consumed events — with the windowed counterexample ending at
// the offending event. After a violation the checker resets to the start
// states, so later events keep being checked. Steady-state accepting
// calls allocate nothing; a Feed after Finalize returns an error.
func (c *Checker) Feed(e event.Event) (Violation, bool, error) {
	if c.finalized {
		return Violation{}, false, fmt.Errorf("stream: feed after finalize")
	}
	c.push(e)
	c.events++
	c.sinceReset++
	if c.cur.Step(e) {
		return Violation{}, false, nil
	}
	v := Violation{
		Trace:     trace.Trace{Events: c.snapshotWindow()},
		At:        c.n - 1,
		Offset:    c.events - 1,
		Truncated: c.truncated,
	}
	c.violations++
	c.reset()
	return v, true, nil
}

// Finalize closes the stream. A stream that has consumed events since
// its last reset but whose surviving runs include no accepting state is
// an incomplete protocol instance and yields one final violation whose
// At is the window length (mirroring verify.Violation's
// incomplete-at-end convention). Finalize is idempotent in effect but
// may only be called once; the checker accepts no events afterwards.
func (c *Checker) Finalize() (Violation, bool) {
	c.finalized = true
	if c.sinceReset == 0 || c.cur.Accepting() {
		return Violation{}, false
	}
	v := Violation{
		Trace:     trace.Trace{Events: c.snapshotWindow()},
		At:        c.n,
		Offset:    c.events,
		Truncated: c.truncated,
	}
	c.violations++
	return v, true
}

// State is a checker's externalized form: everything needed to restore
// an open stream after a crash (cabled persists one of these per open
// stream in the session's write-ahead log).
type State struct {
	// Window is the configured ring capacity.
	Window int
	// Events, SinceReset, Truncations and Violations mirror the
	// checker's counters.
	Events      uint64
	SinceReset  uint64
	Truncations uint64
	Violations  int
	// Truncated mirrors the current window's overflow flag.
	Truncated bool
	// Frontier is the automaton frontier as ascending state IDs.
	Frontier []int
	// Ring is the violation window's contents in stream order.
	Ring []event.Event
}

// State externalizes the checker. Its Frontier and Ring alias the
// checker's own buffers, so they stay valid only until the checker's next
// Feed, Finalize or State: a caller renders or copies them before then.
// To hand out the ring without a copy, State rotates it in place so that
// the window starts at its first slot.
func (c *Checker) State() State {
	if c.start > 0 {
		slices.Reverse(c.ring[:c.start])
		slices.Reverse(c.ring[c.start:])
		slices.Reverse(c.ring)
		c.start = 0
	}
	c.frontier = c.cur.States(c.frontier[:0])
	return State{
		Window:      c.window,
		Events:      c.events,
		SinceReset:  c.sinceReset,
		Truncations: c.truncations,
		Violations:  c.violations,
		Truncated:   c.truncated,
		Frontier:    c.frontier,
		Ring:        c.ring[:c.n],
	}
}

// Restore rebuilds a checker from an externalized state against the same
// specification plan. It validates shape (frontier states in range, ring
// within the window) so a corrupt or mismatched record fails loudly
// instead of resurrecting a nonsense stream.
func Restore(sim *fa.Sim, st State) (*Checker, error) {
	c := New(sim, Config{Window: st.Window})
	if len(st.Ring) > c.window {
		return nil, fmt.Errorf("stream: restoring: %d ring events exceed window %d", len(st.Ring), c.window)
	}
	if err := c.cur.SetStates(st.Frontier); err != nil {
		return nil, fmt.Errorf("stream: restoring: %w", err)
	}
	copy(c.ring, st.Ring)
	c.n = len(st.Ring)
	c.events = st.Events
	c.sinceReset = st.SinceReset
	c.truncations = st.Truncations
	c.violations = st.Violations
	c.truncated = st.Truncated
	return c, nil
}
