package xtrace_test

// The generator as it was before models were compiled: every drawn event
// re-parsed from its template symbol, each run's objects numbered through
// a map, and each trace keyed afresh. The differential tests pin the
// compiled generator to it draw for draw.

import (
	"fmt"
	"math/rand"

	"repro/internal/event"
	"repro/internal/mine"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// oracleExpand instantiates the template with concrete repetition counts.
func oracleExpand(sc xtrace.Scenario, rng *rand.Rand) []event.Event {
	var out []event.Event
	for _, ev := range sc.Events {
		n := ev.Min
		if ev.Max > ev.Min {
			n += rng.Intn(ev.Max - ev.Min + 1)
		}
		e := event.MustParse(ev.Sym)
		for i := 0; i < n; i++ {
			out = append(out, e)
		}
	}
	return out
}

// oraclePick samples a scenario index by weight.
func oraclePick(m xtrace.Model, rng *rand.Rand) int {
	total := 0
	for _, sc := range m.Scenarios {
		total += sc.Weight
	}
	r := rng.Intn(total)
	for i, sc := range m.Scenarios {
		r -= sc.Weight
		if r < 0 {
			return i
		}
	}
	return len(m.Scenarios) - 1
}

// oracleScenarioSet is Generator.ScenarioSet.
func oracleScenarioSet(g xtrace.Generator, n int) (*trace.Set, xtrace.Labeling) {
	rng := rand.New(rand.NewSource(g.Seed))
	set := &trace.Set{}
	labels := xtrace.Labeling{}
	for i := 0; i < n; i++ {
		sc := g.Model.Scenarios[oraclePick(g.Model, rng)]
		tr := trace.Trace{ID: fmt.Sprintf("%s#%d", sc.Name, i), Events: oracleExpand(sc, rng)}
		set.Add(tr)
		labels[tr.Key()] = sc.Good
	}
	return set, labels
}

// oracleRuns is Generator.Runs.
func oracleRuns(g xtrace.Generator, numRuns, scenariosPerRun int) ([]mine.Run, xtrace.Labeling) {
	rng := rand.New(rand.NewSource(g.Seed))
	labels := xtrace.Labeling{}
	runs := make([]mine.Run, 0, numRuns)
	nextObj := event.ObjID(1)
	for r := 0; r < numRuns; r++ {
		type pending struct {
			events []event.Concrete
			next   int
		}
		var lanes []*pending
		for s := 0; s < scenariosPerRun; s++ {
			sc := g.Model.Scenarios[oraclePick(g.Model, rng)]
			symbolic := oracleExpand(sc, rng)
			labels[trace.Trace{Events: symbolic}.Key()] = sc.Good
			concrete, used := oracleConcretize(symbolic, nextObj)
			nextObj += event.ObjID(used)
			lanes = append(lanes, &pending{events: concrete})
		}
		var all []event.Concrete
		for {
			var ready []*pending
			for _, l := range lanes {
				if l.next < len(l.events) {
					ready = append(ready, l)
				}
			}
			if len(ready) == 0 {
				break
			}
			if len(g.Model.Noise) > 0 && rng.Intn(4) == 0 {
				all = append(all, event.Concrete{Op: event.MustParse(g.Model.Noise[rng.Intn(len(g.Model.Noise))]).Op})
			}
			lane := ready[rng.Intn(len(ready))]
			all = append(all, lane.events[lane.next])
			lane.next++
		}
		runs = append(runs, mine.Run{ID: fmt.Sprintf("sim:run%d", r), Events: all})
	}
	return runs, labels
}

// oracleConcretize maps the symbolic events to concrete ones with fresh
// object identities per scenario name; it returns the events and how many
// objects were allocated.
func oracleConcretize(symbolic []event.Event, base event.ObjID) ([]event.Concrete, int) {
	objs := map[string]event.ObjID{}
	alloc := func(name string) event.ObjID {
		if name == "" {
			return 0
		}
		if id, ok := objs[name]; ok {
			return id
		}
		id := base + event.ObjID(len(objs))
		objs[name] = id
		return id
	}
	out := make([]event.Concrete, len(symbolic))
	for i, e := range symbolic {
		c := event.Concrete{Op: e.Op, Def: alloc(e.Def)}
		for _, u := range e.Uses {
			c.Uses = append(c.Uses, alloc(u))
		}
		out[i] = c
	}
	return out, len(objs)
}

// oracleStreams is Generator.Streams.
func oracleStreams(g xtrace.Generator, n, scenariosPerStream int) ([]xtrace.StreamScript, xtrace.Labeling) {
	rng := rand.New(rand.NewSource(g.Seed))
	labels := xtrace.Labeling{}
	scripts := make([]xtrace.StreamScript, 0, n)
	for i := 0; i < n; i++ {
		s := xtrace.StreamScript{ID: fmt.Sprintf("stream%d", i)}
		for j := 0; j < scenariosPerStream; j++ {
			sc := g.Model.Scenarios[oraclePick(g.Model, rng)]
			symbolic := oracleExpand(sc, rng)
			labels[trace.Trace{Events: symbolic}.Key()] = sc.Good
			if !sc.Good {
				s.Bad++
			}
			s.Events = append(s.Events, symbolic...)
		}
		scripts = append(scripts, s)
	}
	return scripts, labels
}
