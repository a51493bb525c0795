// Package mine implements Strauss, the specification miner whose buggy
// output Cable debugs (Section 2.2, Figure 7).
//
// Strauss has two halves. The front end extracts scenario traces from
// whole-program execution traces: each occurrence of a seed operation opens
// a scenario, and the events data-dependent on the seed's objects — events
// touching the seed's result, or touching objects derived from it — are
// collected into a short symbolic trace with object identities renamed to
// canonical variables. The back end learns a specification FA from the
// scenario multiset with the sk-strings learner (internal/learn), optionally
// cored. If some runs contain errors, some scenario traces are erroneous
// and the learned FA accepts erroneous traces — the debugging problem the
// rest of the repository solves.
package mine

import (
	"slices"
	"strconv"

	"repro/internal/event"
	"repro/internal/trace"
)

// canonicalNames are assigned to a scenario's objects in first-appearance
// order; scenarios touching more objects continue with N7, N8, ...
var canonicalNames = []string{"X", "Y", "Z", "W", "V", "U", "T"}

// FrontEnd extracts scenario traces from whole-program traces.
type FrontEnd struct {
	// Seeds lists the operation names whose occurrences open scenarios; an
	// event is a seed occurrence if its operation matches and it defines an
	// object.
	Seeds []string
	// FollowDerived extends a scenario's object set with objects defined by
	// events that use a scenario object (transitive data flow from the
	// seed). Without it a scenario follows only the seed's own objects.
	FollowDerived bool
}

// Run is one whole-program execution trace.
type Run struct {
	// ID names the run (program and invocation).
	ID string
	// Events is the concrete event sequence.
	Events []event.Concrete
}

// ExtractAll slices the scenario trace of every seed occurrence out of the
// runs and collects them into a set (classes of identical scenarios are the
// objects later passed to concept analysis). Scenarios are added run by
// run, in seed-occurrence order within a run, with IDs "<runID>#<n>".
//
// A scenario holds the events, from its seed on, that touch an object it
// tracks: the seed's result and, with FollowDerived, every object defined
// by such an event. Its tracked objects are named X, Y, ..., T, N7, N8, ...
// in the order they join it; any other object renders as "_". Each run is
// read once: an index from objects to the scenarios tracking them sends
// every event only to those scenarios.
func (fe FrontEnd) ExtractAll(runs []Run) *trace.Set {
	set := &trace.Set{}
	x := extractor{fe: fe, index: map[event.ObjID]int32{}}
	for _, run := range runs {
		x.extract(run, set)
	}
	return set
}

// extractor is the front end's state over the runs of one ExtractAll call;
// its buffers are emptied, not reallocated, for each run.
type extractor struct {
	fe FrontEnd
	// index maps an object to its newest entry in links, as 1 + the
	// entry's position (0: no scenario tracks the object).
	index map[event.ObjID]int32
	links []link
	open  []scenario // the run's scenarios, in seed order
	hit   []int32    // the scenarios the current event touches
	steps []step     // the events sliced from the run, in run order
	uses  []string   // the argument names of steps, in order
	extra []string   // N7, N8, ...: names past canonicalNames
	id    []byte
}

// link is an entry of the index: a scenario tracking the object, and the
// object's next entry (1 + its position in links, 0 at the end).
type link struct{ scenario, next int32 }

// scenario is one seed occurrence's slice of the current run.
type scenario struct {
	objs    []event.ObjID // tracked objects in joining order; objs[k] gets the k'th name
	len     int           // events sliced so far
	offered int           // 1 + the index of the last event offered to it
	next    int           // where its next event goes in the run's slab
}

// step is an event sliced into a scenario, its argument names held in
// extractor.uses[from:to].
type step struct {
	scenario int32
	from, to int32
	op, def  string
}

// extract slices one run and adds its scenarios to set.
func (x *extractor) extract(run Run, set *trace.Set) {
	for _, sc := range x.open {
		for _, o := range sc.objs {
			delete(x.index, o)
		}
	}
	x.links, x.open, x.steps, x.uses = x.links[:0], x.open[:0], x.steps[:0], x.uses[:0]
	for i, e := range run.Events {
		if e.Def != 0 && slices.Contains(x.fe.Seeds, e.Op) {
			x.openScenario(e.Def)
		}
		// Which scenarios the event touches is settled before any of them
		// tracks the object the event defines.
		x.hit = x.hit[:0]
		x.offer(e.Def, i)
		for _, u := range e.Uses {
			x.offer(u, i)
		}
		for _, s := range x.hit {
			x.slice(s, e)
		}
	}

	// Cut the scenarios' events from one slab, in seed order, and their
	// argument names from another.
	events := make([]event.Event, len(x.steps))
	uses := append([]string(nil), x.uses...)
	n := 0
	for s := range x.open {
		x.open[s].next = n
		n += x.open[s].len
	}
	for _, st := range x.steps {
		e := event.Event{Op: st.op, Def: st.def}
		if st.to > st.from {
			e.Uses = uses[st.from:st.to:st.to]
		}
		sc := &x.open[st.scenario]
		events[sc.next] = e
		sc.next++
	}
	start := 0
	for s, sc := range x.open {
		x.id = strconv.AppendInt(append(append(x.id[:0], run.ID...), '#'), int64(s), 10)
		set.Add(trace.Trace{ID: string(x.id), Events: events[start:sc.next:sc.next]})
		start = sc.next
	}
}

// openScenario starts a scenario tracking the seed's result obj, reusing
// the object slice an earlier run's scenario left in its place.
func (x *extractor) openScenario(obj event.ObjID) {
	n := len(x.open)
	if n < cap(x.open) {
		x.open = x.open[:n+1]
		x.open[n] = scenario{objs: x.open[n].objs[:0]}
	} else {
		x.open = append(x.open, scenario{})
	}
	x.track(int32(n), obj)
}

// track adds obj to scenario s's objects and to the index.
func (x *extractor) track(s int32, obj event.ObjID) {
	x.open[s].objs = append(x.open[s].objs, obj)
	x.links = append(x.links, link{scenario: s, next: x.index[obj]})
	x.index[obj] = int32(len(x.links))
}

// offer adds to hit every open scenario tracking obj that event i has not
// yet reached through another of its objects.
func (x *extractor) offer(obj event.ObjID, i int) {
	if obj == 0 {
		return
	}
	for l := x.index[obj]; l != 0; l = x.links[l-1].next {
		s := x.links[l-1].scenario
		if sc := &x.open[s]; sc.offered != i+1 {
			sc.offered = i + 1
			x.hit = append(x.hit, s)
		}
	}
}

// slice appends event e, renamed for scenario s, to the run's steps. With
// FollowDerived the object e defines joins the scenario first, so it is
// named by this very event.
func (x *extractor) slice(s int32, e event.Concrete) {
	if x.fe.FollowDerived && e.Def != 0 && !slices.Contains(x.open[s].objs, e.Def) {
		x.track(s, e.Def)
	}
	sc := &x.open[s]
	st := step{scenario: s, from: int32(len(x.uses)), op: e.Op, def: x.rename(sc, e.Def)}
	for _, u := range e.Uses {
		x.uses = append(x.uses, x.rename(sc, u))
	}
	st.to = int32(len(x.uses))
	x.steps = append(x.steps, st)
	sc.len++
}

// rename returns the name scenario sc gives obj: "" for no object, the
// canonical name of a tracked object, and "_" for any other.
func (x *extractor) rename(sc *scenario, obj event.ObjID) string {
	if obj == 0 {
		return ""
	}
	k := slices.Index(sc.objs, obj)
	if k < 0 {
		return "_"
	}
	if k < len(canonicalNames) {
		return canonicalNames[k]
	}
	for len(canonicalNames)+len(x.extra) <= k {
		x.extra = append(x.extra, "N"+strconv.Itoa(len(canonicalNames)+len(x.extra)))
	}
	return x.extra[k-len(canonicalNames)]
}
