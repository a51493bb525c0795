package fa

import (
	"sync"

	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Sim is a compiled simulation plan for one automaton: the structure every
// call to Accepts/RejectsAt/Executed needs is computed once so the per-trace
// inner loop touches only dense integer tables.
//
//   - Transition labels are interned to dense symbol IDs (event.Interner),
//     so matching a trace event against a transition is an integer compare
//     instead of a string render + compare per (state, event) pair.
//   - The transition relation is stored in CSR-style flat rows: row
//     (state, symbol) lists the outgoing (successor, transition) pairs, with
//     a separate per-state wildcard row appended to every match. A mirrored
//     backward CSR (predecessors per (state, symbol)) drives the backward
//     pass of Executed.
//   - Scratch state (frontier bitsets, the per-position forward frontiers,
//     symbol and rendering buffers) is built once with the plan and reused
//     by every call, so steady-state simulation allocates nothing.
//
// A Sim is immutable after compilation apart from its scratch, which a
// mutex holds for the whole of each Accepts, RejectsAt and ExecutedInto call:
// all methods may be called from multiple goroutines, which take turns.
// No production caller shares a plan across goroutines; stream checkers
// step their own Cursor, which never touches the scratch. A Sim keeps no
// per-trace state: callers that want one simulation per class of
// identical traces pass class representatives (trace.Set.Representatives).
//
// Obtain a Sim with FA.Sim(), which compiles on first use and caches the
// plan for the automaton's lifetime.
type Sim struct {
	fa        *FA
	numStates int
	numSyms   int
	interner  *event.Interner
	start     *bitset.Set // read-only
	accept    *bitset.Set // read-only

	// Forward CSR: row state*numSyms+sym holds entries k in
	// [fwdOff[row], fwdOff[row+1]) with successor fwdTo[k] via transition
	// fwdT[k].
	fwdOff []int32
	fwdTo  []int32
	fwdT   []int32
	// Forward wildcard row per state (matches any event).
	wfOff []int32
	wfTo  []int32
	wfT   []int32

	// Backward CSR: row state*numSyms+sym holds the predecessors of state
	// via transitions labeled sym.
	bwdOff  []int32
	bwdFrom []int32
	bwdT    []int32
	// Backward wildcard row per state.
	wbOff  []int32
	wbFrom []int32
	wbT    []int32

	mu sync.Mutex // held for the whole of each call that uses sc
	sc simScratch
}

// simScratch is the reusable per-simulation state, one per plan.
type simScratch struct {
	syms   []int32       // per-event symbol IDs of the current trace (-1 = unknown)
	evBuf  []byte        // event rendering buffer for symbol lookup
	cur    *bitset.Set   // rolling frontier
	nxt    *bitset.Set   // rolling frontier
	bwdCur *bitset.Set   // rolling backward frontier
	bwdNxt *bitset.Set   // rolling backward frontier
	fwd    []*bitset.Set // per-position forward frontiers for Executed
}

// simCache lazily holds an FA's compiled plan behind a pointer so FA values
// can be copied shallowly (WithName) without copying the sync.Once.
type simCache struct {
	once sync.Once
	sim  *Sim
}

// Sim returns the automaton's compiled simulation plan, compiling it on
// first use. The plan is cached for the automaton's lifetime and is safe to
// share across goroutines; callers running many traces should grab it once
// instead of going through the per-call FA methods.
func (f *FA) Sim() *Sim {
	c := f.simc
	if c == nil {
		// Zero-value FA (never produced by Build); compile uncached.
		return newSim(f)
	}
	c.once.Do(func() { c.sim = newSim(f) })
	return c.sim
}

// newSim compiles the automaton into CSR transition tables.
func newSim(f *FA) *Sim {
	sp := obs.StartSpan("fa.compile")
	defer sp.End()
	s := &Sim{
		fa:        f,
		numStates: f.numStates,
		interner:  event.NewInterner(),
		start:     f.start,
		accept:    f.accept,
	}
	// Intern every non-wildcard label; symOf maps the FA's label IDs to
	// dense symbol IDs, with -1 marking the wildcard.
	symOf := make([]int, len(f.labels))
	for i, l := range f.labels {
		if IsWildcard(l) {
			symOf[i] = -1
		} else {
			symOf[i] = s.interner.Intern(l)
		}
	}
	s.numSyms = s.interner.Len()

	n, m := s.numStates, s.numSyms
	s.fwdOff = make([]int32, n*m+1)
	s.bwdOff = make([]int32, n*m+1)
	s.wfOff = make([]int32, n+1)
	s.wbOff = make([]int32, n+1)
	for ti, t := range f.trans {
		if sym := symOf[f.labelOf[ti]]; sym < 0 {
			s.wfOff[t.From+1]++
			s.wbOff[t.To+1]++
		} else {
			s.fwdOff[int(t.From)*m+sym+1]++
			s.bwdOff[int(t.To)*m+sym+1]++
		}
	}
	for i := 1; i < len(s.fwdOff); i++ {
		s.fwdOff[i] += s.fwdOff[i-1]
		s.bwdOff[i] += s.bwdOff[i-1]
	}
	for i := 1; i < len(s.wfOff); i++ {
		s.wfOff[i] += s.wfOff[i-1]
		s.wbOff[i] += s.wbOff[i-1]
	}
	nt := len(f.trans)
	wild := int(s.wfOff[n])
	s.fwdTo = make([]int32, nt-wild)
	s.fwdT = make([]int32, nt-wild)
	s.bwdFrom = make([]int32, nt-wild)
	s.bwdT = make([]int32, nt-wild)
	s.wfTo = make([]int32, wild)
	s.wfT = make([]int32, wild)
	s.wbFrom = make([]int32, wild)
	s.wbT = make([]int32, wild)
	fill := make([]int32, n*m)
	bfill := make([]int32, n*m)
	wfill := make([]int32, n)
	wbfill := make([]int32, n)
	for ti, t := range f.trans {
		if sym := symOf[f.labelOf[ti]]; sym < 0 {
			k := s.wfOff[t.From] + wfill[t.From]
			s.wfTo[k], s.wfT[k] = int32(t.To), int32(ti)
			wfill[t.From]++
			k = s.wbOff[t.To] + wbfill[t.To]
			s.wbFrom[k], s.wbT[k] = int32(t.From), int32(ti)
			wbfill[t.To]++
		} else {
			row := int(t.From)*m + sym
			k := s.fwdOff[row] + fill[row]
			s.fwdTo[k], s.fwdT[k] = int32(t.To), int32(ti)
			fill[row]++
			row = int(t.To)*m + sym
			k = s.bwdOff[row] + bfill[row]
			s.bwdFrom[k], s.bwdT[k] = int32(t.From), int32(ti)
			bfill[row]++
		}
	}
	s.sc = simScratch{
		cur:    bitset.New(n),
		nxt:    bitset.New(n),
		bwdCur: bitset.New(n),
		bwdNxt: bitset.New(n),
	}
	obs.Count("fa.compile.plans", 1)
	return s
}

// CanonicalEvent returns the interned event whose canonical rendering
// (event.AppendString) is exactly key, or ok=false when the bytes name no
// transition label of this plan. Decoders that already hold the rendering
// bytes of a candidate event use it to reuse the interned Event — shared
// strings, no per-event parse allocations.
func (s *Sim) CanonicalEvent(key []byte) (event.Event, bool) {
	id, ok := s.interner.LookupKey(key)
	if !ok {
		return event.Event{}, false
	}
	return s.interner.Event(id), true
}

// mapSyms renders each trace event once and resolves it to a dense symbol
// ID (-1 for events outside the automaton's alphabet, which only wildcard
// rows can match). The rendering buffer and symbol slice are scratch-owned,
// so the steady state is allocation-free.
func (s *Sim) mapSyms(sc *simScratch, events []event.Event) {
	if cap(sc.syms) < len(events) {
		sc.syms = make([]int32, 0, len(events))
	}
	sc.syms = sc.syms[:0]
	for _, e := range events {
		sc.evBuf = e.AppendString(sc.evBuf[:0])
		id, ok := s.interner.LookupKey(sc.evBuf)
		if !ok {
			id = -1
		}
		sc.syms = append(sc.syms, int32(id))
	}
}

// stepInto sets next to the successor frontier of cur under symbol sym.
func (s *Sim) stepInto(next, cur *bitset.Set, sym int32) {
	next.Clear()
	m := s.numSyms
	cur.Range(func(p int) bool {
		if sym >= 0 {
			row := p*m + int(sym)
			for k := s.fwdOff[row]; k < s.fwdOff[row+1]; k++ {
				next.Add(int(s.fwdTo[k]))
			}
		}
		for k := s.wfOff[p]; k < s.wfOff[p+1]; k++ {
			next.Add(int(s.wfTo[k]))
		}
		return true
	})
}

// Accepts reports whether some run of the automaton accepts the trace.
// Steady-state calls allocate nothing.
func (s *Sim) Accepts(t trace.Trace) bool {
	sp := obs.StartSpan("fa.accepts")
	defer sp.End()
	obs.Count("fa.accepts.events", int64(len(t.Events)))
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := &s.sc
	s.mapSyms(sc, t.Events)
	cur, next := sc.cur.CopyFrom(s.start), sc.nxt
	for _, sym := range sc.syms {
		s.stepInto(next, cur, sym)
		if next.Empty() {
			return false
		}
		cur, next = next, cur
	}
	return cur.Intersects(s.accept)
}

// RejectsAt returns the index of the first event at which every run of the
// automaton is dead, len(t.Events) if the trace completes without reaching
// an accepting state, or -1 if the trace is accepted (see FA.RejectsAt).
// Steady-state calls allocate nothing.
func (s *Sim) RejectsAt(t trace.Trace) int {
	sp := obs.StartSpan("fa.rejectsat")
	defer sp.End()
	obs.Count("fa.rejectsat.events", int64(len(t.Events)))
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := &s.sc
	s.mapSyms(sc, t.Events)
	cur, next := sc.cur.CopyFrom(s.start), sc.nxt
	for i, sym := range sc.syms {
		s.stepInto(next, cur, sym)
		if next.Empty() {
			return i
		}
		cur, next = next, cur
	}
	if cur.Intersects(s.accept) {
		return -1
	}
	return len(t.Events)
}

// Executed returns the set of transition indices on at least one accepting
// run of the automaton on the trace — the relation R of Section 3.2 (see
// FA.Executed). The returned set is fresh and owned by the caller; apart
// from it, steady-state calls allocate nothing.
func (s *Sim) Executed(t trace.Trace) (*bitset.Set, bool) {
	out := bitset.New(len(s.fa.trans))
	return out, s.ExecutedInto(out, t)
}

// ExecutedInto is Executed into a caller-owned set: it clears out, fills it
// with the executed transitions and reports acceptance; a rejected trace
// leaves out empty. Steady-state calls allocate nothing once out's words
// cover the automaton's transitions, so a caller can simulate each trace
// straight into its context row.
func (s *Sim) ExecutedInto(out *bitset.Set, t trace.Trace) bool {
	sp := obs.StartSpan("fa.executed")
	defer sp.End()
	obs.Count("fa.executed.events", int64(len(t.Events)))
	s.mu.Lock()
	defer s.mu.Unlock()
	out.Clear()
	ok := s.executedInto(&s.sc, t, out)
	if !ok {
		obs.Count("fa.executed.rejected", 1)
	}
	return ok
}

// executedInto adds the executed-transition relation for t to out, which
// must be empty, and reports acceptance. It is
// the forward/backward product of FA.Executed over the CSR tables, with
// the backward pass rolled into two scratch frontiers and the per-position
// transition sweep fused into it.
func (s *Sim) executedInto(sc *simScratch, t trace.Trace, out *bitset.Set) bool {
	n := len(t.Events)
	s.mapSyms(sc, t.Events)
	for len(sc.fwd) < n+1 {
		sc.fwd = append(sc.fwd, bitset.New(s.numStates))
	}
	fwd := sc.fwd
	fwd[0].CopyFrom(s.start)
	for i, sym := range sc.syms {
		s.stepInto(fwd[i+1], fwd[i], sym)
		if fwd[i+1].Empty() {
			return false
		}
	}
	if !fwd[n].Intersects(s.accept) {
		return false
	}
	m := s.numSyms
	bwdNext := bitset.IntersectInto(sc.bwdNxt, fwd[n], s.accept)
	bwdCur := sc.bwdCur
	for i := n - 1; i >= 0; i-- {
		sym := sc.syms[i]
		from := fwd[i]
		// A transition (p --sym--> q) is executed at position i iff
		// p ∈ fwd[i] and q ∈ bwd[i+1]; those p are exactly bwd[i].
		bwdCur.Clear()
		bwdNext.Range(func(q int) bool {
			if sym >= 0 {
				row := q*m + int(sym)
				for k := s.bwdOff[row]; k < s.bwdOff[row+1]; k++ {
					if p := int(s.bwdFrom[k]); from.Has(p) {
						bwdCur.Add(p)
						out.Add(int(s.bwdT[k]))
					}
				}
			}
			for k := s.wbOff[q]; k < s.wbOff[q+1]; k++ {
				if p := int(s.wbFrom[k]); from.Has(p) {
					bwdCur.Add(p)
					out.Add(int(s.wbT[k]))
				}
			}
			return true
		})
		bwdCur, bwdNext = bwdNext, bwdCur
	}
	return true
}
