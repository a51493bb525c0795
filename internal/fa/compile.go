package fa

import (
	"context"
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
//     symbol and key buffers) lives in a sync.Pool, so steady-state
//     simulation allocates nothing and one Sim can be shared across
//     goroutines.
//   - Executed results are memoized per identical-event trace class (keyed
//     by trace.Trace.AppendKey), so a class is simulated exactly once no
//     matter how many duplicate traces replay it; ExecutedAll batches that
//     dedup over a whole trace slice.
//
// A Sim is immutable after compilation apart from the scratch pool and the
// memo table, both of which are safe for concurrent use: all methods may be
// called from multiple goroutines.
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

	pool sync.Pool // *simScratch

	mu   sync.RWMutex
	memo map[string]memoEntry // trace class key -> executed set
}

// memoEntry is one memoized Executed result. The set is shared by every
// caller and must be treated as read-only.
type memoEntry struct {
	set *bitset.Set
	ok  bool
}

// simScratch is the reusable per-simulation state. One scratch is checked
// out of the pool per call, so a shared Sim stays goroutine-safe while the
// steady state allocates nothing.
type simScratch struct {
	syms   []int32       // per-event symbol IDs of the current trace (-1 = unknown)
	evBuf  []byte        // event rendering buffer for symbol lookup
	keyBuf []byte        // trace class key buffer for memo lookup
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
		memo:      make(map[string]memoEntry),
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
	s.pool.New = func() any {
		return &simScratch{
			cur:    bitset.New(s.numStates),
			nxt:    bitset.New(s.numStates),
			bwdCur: bitset.New(s.numStates),
			bwdNxt: bitset.New(s.numStates),
		}
	}
	obs.Count("fa.compile.plans", 1)
	return s
}

func (s *Sim) get() *simScratch   { return s.pool.Get().(*simScratch) }
func (s *Sim) put(sc *simScratch) { s.pool.Put(sc) }

// NumSymbols returns the number of distinct non-wildcard transition labels.
func (s *Sim) NumSymbols() int { return s.numSyms }

// FA returns the automaton this plan was compiled from.
func (s *Sim) FA() *FA { return s.fa }

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
	sc := s.get()
	defer s.put(sc)
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
	sc := s.get()
	defer s.put(sc)
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
// from it, steady-state calls allocate nothing. Callers replaying many
// duplicate traces should prefer ExecutedShared or ExecutedAll, which
// memoize per identical-event class.
func (s *Sim) Executed(t trace.Trace) (*bitset.Set, bool) {
	sp := obs.StartSpan("fa.executed")
	defer sp.End()
	obs.Count("fa.executed.events", int64(len(t.Events)))
	sc := s.get()
	defer s.put(sc)
	out := bitset.New(len(s.fa.trans))
	ok := s.executedInto(sc, t, out)
	if !ok {
		obs.Count("fa.executed.rejected", 1)
	}
	return out, ok
}

// ExecutedShared is Executed with class-level memoization: the first call
// for an identical-event trace class simulates it, and every later call —
// from any goroutine — returns the same cached set with zero allocations.
// The returned set is shared and must be treated as read-only.
func (s *Sim) ExecutedShared(t trace.Trace) (*bitset.Set, bool) {
	sc := s.get()
	sc.keyBuf = t.AppendKey(sc.keyBuf[:0])
	s.mu.RLock()
	e, hit := s.memo[string(sc.keyBuf)]
	s.mu.RUnlock()
	if hit {
		s.put(sc)
		obs.Count("fa.executed.memo_hits", 1)
		return e.set, e.ok
	}
	sp := obs.StartSpan("fa.executed")
	obs.Count("fa.executed.events", int64(len(t.Events)))
	out := bitset.New(len(s.fa.trans))
	ok := s.executedInto(sc, t, out)
	sp.End()
	if !ok {
		obs.Count("fa.executed.rejected", 1)
	}
	s.mu.Lock()
	if e, again := s.memo[string(sc.keyBuf)]; again {
		// A racing caller computed the class first; adopt its canonical set
		// so every member of a class shares one pointer.
		out, ok = e.set, e.ok
	} else {
		s.memo[string(sc.keyBuf)] = memoEntry{set: out, ok: ok}
	}
	s.mu.Unlock()
	s.put(sc)
	return out, ok
}

// executedInto computes the executed-transition relation for t into out
// (sized for the automaton's transitions) and reports acceptance. It is
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

// ExecutedAll simulates every trace, memoizing per identical-event class so
// each class is simulated exactly once: result i is the executed set and
// acceptance of traces[i], and identical traces share one set pointer. The
// sets are memo-backed and must be treated as read-only.
func (s *Sim) ExecutedAll(traces []trace.Trace) ([]*bitset.Set, []bool) {
	sets, oks, _ := s.ExecutedAllCtx(context.Background(), traces)
	return sets, oks
}

// ExecutedAllCtx is ExecutedAll with cancellation. Only one representative
// per identical-event class is simulated; class members share the
// resulting set. Cancellation is checked between classes; once ctx is done
// no new simulation starts and ctx.Err() is returned.
func (s *Sim) ExecutedAllCtx(ctx context.Context, traces []trace.Trace) ([]*bitset.Set, []bool, error) {
	sp := obs.StartSpan("fa.executedall")
	defer sp.End()
	classOf := make([]int, len(traces))
	var reps []int // index into traces of each class representative
	seen := make(map[string]int, len(traces))
	var buf []byte
	// The dedup pass hashes every trace key; on huge batches that is real
	// work, so honor cancellation on a stride like the simulation loop.
	done := ctx.Done()
	for i, t := range traces {
		if i&1023 == 0 {
			select {
			case <-done:
				return nil, nil, ctx.Err()
			default:
			}
		}
		buf = t.AppendKey(buf[:0])
		if c, ok := seen[string(buf)]; ok {
			classOf[i] = c
			continue
		}
		c := len(reps)
		seen[string(buf)] = c
		reps = append(reps, i)
		classOf[i] = c
	}
	obs.Count("fa.executedall.traces", int64(len(traces)))
	obs.Count("fa.executedall.classes", int64(len(reps)))
	repSets := make([]*bitset.Set, len(reps))
	repOks := make([]bool, len(reps))
	for c, i := range reps {
		select {
		case <-done:
			return nil, nil, ctx.Err()
		default:
		}
		repSets[c], repOks[c] = s.ExecutedShared(traces[i])
	}
	sets := make([]*bitset.Set, len(traces))
	oks := make([]bool, len(traces))
	for i, c := range classOf {
		if i&8191 == 0 {
			select {
			case <-done:
				return nil, nil, ctx.Err()
			default:
			}
		}
		sets[i], oks[i] = repSets[c], repOks[c]
	}
	return sets, oks, nil
}
