package mine_test

// The front end as it was before the one-pass slicer: every seed
// occurrence rescans the rest of its run through three maps. The
// differential tests and FuzzExtractMatchesOracle pin ExtractAll to it.

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/mine"
	"repro/internal/trace"
)

// oracleNames are assigned to a scenario's objects in first-appearance
// order; scenarios touching more objects continue with N7, N8, ...
var oracleNames = []string{"X", "Y", "Z", "W", "V", "U", "T"}

// oracleExtractAll is FrontEnd.ExtractAll.
func oracleExtractAll(fe mine.FrontEnd, runs []mine.Run) *trace.Set {
	set := &trace.Set{}
	for _, run := range runs {
		for _, sc := range oracleExtract(fe, run) {
			set.Add(sc)
		}
	}
	return set
}

// oracleExtract returns the scenario traces of all seed occurrences in the
// run, in occurrence order. Scenario IDs are "<runID>#<n>".
func oracleExtract(fe mine.FrontEnd, run mine.Run) []trace.Trace {
	seedOps := map[string]bool{}
	for _, s := range fe.Seeds {
		seedOps[s] = true
	}
	var out []trace.Trace
	for i, e := range run.Events {
		if !seedOps[e.Op] || e.Def == 0 {
			continue
		}
		id := fmt.Sprintf("%s#%d", run.ID, len(out))
		out = append(out, oracleScenario(fe, run, i, id))
	}
	return out
}

// oracleScenario slices the events data-dependent on the seed at index
// start.
func oracleScenario(fe mine.FrontEnd, run mine.Run, start int, id string) trace.Trace {
	tracked := map[event.ObjID]bool{run.Events[start].Def: true}
	names := map[event.ObjID]string{}
	nextName := 0
	name := func(obj event.ObjID) {
		if _, ok := names[obj]; ok {
			return
		}
		if nextName < len(oracleNames) {
			names[obj] = oracleNames[nextName]
		} else {
			names[obj] = fmt.Sprintf("N%d", nextName)
		}
		nextName++
	}
	var events []event.Event
	for i := start; i < len(run.Events); i++ {
		e := run.Events[i]
		relevant := false
		for obj := range tracked {
			if touches(e, obj) {
				relevant = true
				break
			}
		}
		if !relevant {
			continue
		}
		if fe.FollowDerived && e.Def != 0 {
			tracked[e.Def] = true
		}
		// Name every tracked object this event touches, in the event's own
		// object order so the first scenario object becomes X.
		for _, obj := range objects(e) {
			if tracked[obj] {
				name(obj)
			}
		}
		// Untracked objects abstract to "_" via abstract's default.
		events = append(events, abstract(e, names))
	}
	return trace.Trace{ID: id, Events: events}
}

// objects returns the distinct non-zero object identities the event
// touches, in first-appearance order (result first).
func objects(c event.Concrete) []event.ObjID {
	seen := map[event.ObjID]bool{}
	var out []event.ObjID
	add := func(id event.ObjID) {
		if id != 0 && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	add(c.Def)
	for _, u := range c.Uses {
		add(u)
	}
	return out
}

// touches reports whether the event defines or uses the given object.
func touches(c event.Concrete, id event.ObjID) bool {
	if id == 0 {
		return false
	}
	if c.Def == id {
		return true
	}
	for _, u := range c.Uses {
		if u == id {
			return true
		}
	}
	return false
}

// abstract converts the concrete event to a symbolic one by renaming each
// object identity through names; identities missing from names are
// rendered as "_" (an anonymous, ignored object).
func abstract(c event.Concrete, names map[event.ObjID]string) event.Event {
	name := func(id event.ObjID) string {
		if id == 0 {
			return ""
		}
		if n, ok := names[id]; ok {
			return n
		}
		return "_"
	}
	e := event.Event{Op: c.Op, Def: name(c.Def)}
	if len(c.Uses) > 0 {
		e.Uses = make([]string, len(c.Uses))
		for i, u := range c.Uses {
			e.Uses[i] = name(u)
		}
	}
	return e
}
