// Package xtrace generates synthetic X11-style workloads: whole-program
// execution traces and scenario-trace multisets drawn from per-specification
// usage models.
//
// The paper's evaluation instruments 72 X11 programs and collects 90 full
// execution traces; those programs and traces are unavailable, so this
// package substitutes stochastic models (see DESIGN.md): each specification
// gets a set of scenario templates — correct protocol instances and the
// error modes the paper reports (leaks, mismatched releases, double frees,
// races) — with relative weights and bounded repetition. The debugging
// method only ever sees the resulting multiset of scenario traces, so a
// generator that reproduces the kinds and proportions of scenarios
// exercises the same code paths end to end.
//
// Generation is deterministic for a given seed.
package xtrace

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/mine"
	"repro/internal/trace"
)

// Event is one step of a scenario template: a symbolic event over scenario
// names (X, Y, ...) with repetition bounds. Min = Max = 1 is a plain event;
// Min = 0 makes the event optional.
type Event struct {
	// Sym is the event in event.Parse syntax, e.g. "fread(X)".
	Sym string
	// Min and Max bound the number of consecutive occurrences (inclusive).
	Min, Max int
}

// Ev returns a template event occurring exactly once.
func Ev(sym string) Event { return Event{Sym: sym, Min: 1, Max: 1} }

// Rep returns a template event occurring between min and max times.
func Rep(sym string, min, max int) Event { return Event{Sym: sym, Min: min, Max: max} }

// Opt returns a template event occurring zero or one time.
func Opt(sym string) Event { return Event{Sym: sym, Min: 0, Max: 1} }

// BugKind classifies an erroneous scenario, following the paper's census
// of the 199 bugs the debugged specifications found: "resource leaks,
// potential races, and performance bugs".
type BugKind string

const (
	// NotABug marks good scenarios.
	NotABug BugKind = ""
	// Leak: a resource acquired and never released.
	Leak BugKind = "leak"
	// Race: an ordering the protocol forbids (e.g. removing a timeout
	// after it fired).
	Race BugKind = "race"
	// Perf: a correctness-preserving but wasteful pattern (e.g. repeated
	// atom interning).
	Perf BugKind = "perf"
	// Misuse: any other protocol violation (double frees, mismatched or
	// premature releases, use-after-free).
	Misuse BugKind = "misuse"
)

// Scenario is a usage pattern: a template, whether it is correct behaviour
// (belongs in the debugged specification), and its relative weight in the
// workload.
type Scenario struct {
	// Name identifies the pattern, e.g. "ok" or "double-free".
	Name string
	// Good marks scenarios the correct specification should accept; !Good
	// scenarios are program errors.
	Good bool
	// Kind classifies erroneous scenarios; it must be NotABug for good
	// ones and set for bad ones.
	Kind BugKind
	// Weight is the relative sampling frequency (≥ 1).
	Weight int
	// Events is the template.
	Events []Event
}

// Model is the workload model of one specification.
type Model struct {
	// Scenarios are the usage patterns; at least one must be Good.
	Scenarios []Scenario
	// Noise lists object-free operations (e.g. "XFlush()") interleaved into
	// whole-program runs; noise never enters scenario traces.
	Noise []string
}

// Validate checks the model for the mistakes that would poison experiments:
// unparsable templates, non-positive weights, and good/bad ambiguity (a
// trace expansion reachable from both a good and a bad template).
func (m Model) Validate() error {
	if len(m.Scenarios) == 0 {
		return fmt.Errorf("xtrace: model has no scenarios")
	}
	hasGood := false
	for _, sc := range m.Scenarios {
		if sc.Good {
			hasGood = true
			if sc.Kind != NotABug {
				return fmt.Errorf("xtrace: good scenario %q carries bug kind %q", sc.Name, sc.Kind)
			}
		} else if sc.Kind == NotABug {
			return fmt.Errorf("xtrace: bad scenario %q lacks a bug kind", sc.Name)
		}
		if sc.Weight <= 0 {
			return fmt.Errorf("xtrace: scenario %q has weight %d", sc.Name, sc.Weight)
		}
		if len(sc.Events) == 0 {
			return fmt.Errorf("xtrace: scenario %q is empty", sc.Name)
		}
		for _, ev := range sc.Events {
			if _, err := event.Parse(ev.Sym); err != nil {
				return fmt.Errorf("xtrace: scenario %q: %v", sc.Name, err)
			}
			if ev.Min < 0 || ev.Max < ev.Min {
				return fmt.Errorf("xtrace: scenario %q: bad repetition [%d,%d] for %s", sc.Name, ev.Min, ev.Max, ev.Sym)
			}
		}
	}
	if !hasGood {
		return fmt.Errorf("xtrace: model has no good scenario")
	}
	for _, n := range m.Noise {
		e, err := event.Parse(n)
		if err != nil {
			return fmt.Errorf("xtrace: noise: %v", err)
		}
		if e.Def != "" || len(e.Uses) != 0 {
			return fmt.Errorf("xtrace: noise event %q must not touch objects", n)
		}
	}
	return m.checkAmbiguity()
}

// checkAmbiguity verifies no short expansion is generable from both a good
// and a bad template (which would make the reference labeling ill-defined).
func (m Model) checkAmbiguity() error {
	seen := map[string]string{} // expansion key -> scenario name
	good := map[string]bool{}
	for _, sc := range m.Scenarios {
		for _, key := range sc.boundedExpansions(64) {
			if prev, ok := seen[key]; ok && good[key] != sc.Good {
				return fmt.Errorf("xtrace: trace %q generable from %q (good=%v) and %q (good=%v)",
					key, prev, good[key], sc.Name, sc.Good)
			}
			seen[key] = sc.Name
			good[key] = sc.Good
		}
	}
	return nil
}

// boundedExpansions enumerates up to limit expansions of the template,
// capping each repetition at min+2 — enough to catch overlaps without
// blowing up.
func (sc Scenario) boundedExpansions(limit int) []string {
	return sc.expansions(limit, true)
}

// Expansions enumerates up to limit expansions of the scenario template
// with its full repetition ranges, as trace keys (trace.Trace.Key);
// experiments use it to map generated traces back to their generating
// scenario. Every string is a whole expansion: past the limit, only the
// first limit prefixes are carried on to the next template event. The
// expansions are in template order, each event's fewest repetitions first.
func Expansions(sc Scenario, limit int) []string {
	return sc.expansions(limit, false)
}

func (sc Scenario) expansions(limit int, capRepeats bool) []string {
	expansions := []string{""}
	for _, ev := range sc.Events {
		sym := event.MustParse(ev.Sym).String()
		max := ev.Max
		if capRepeats && max > ev.Min+2 {
			max = ev.Min + 2
		}
		var next []string
		for _, prefix := range expansions {
			if len(next) >= limit {
				break
			}
			for n := ev.Min; n <= max; n++ {
				s := prefix
				for i := 0; i < n; i++ {
					if s != "" {
						s += "; "
					}
					s += sym
				}
				next = append(next, s)
			}
		}
		expansions = next[:min(len(next), limit)]
	}
	return expansions
}

// Generator draws workloads from a model. Every call compiles the model
// first, so a model whose templates or noise fail to parse panics; Validate
// reports those mistakes as errors.
type Generator struct {
	Model Model
	Seed  int64
}

// Labeling maps a scenario-trace key (trace.Trace.Key) to whether the trace
// is correct. It is the ground truth against which labeling strategies are
// costed.
type Labeling map[string]bool

// set records good for the trace keyed key. The last write wins; a key
// already holding good is left alone, so a repeated trace costs no
// allocation.
func (l Labeling) set(key []byte, good bool) {
	if v, ok := l[string(key)]; !ok || v != good {
		l[string(key)] = good
	}
}

// compiled is a model ready to draw from: every template symbol and noise
// operation parsed once, and the weights summed once.
type compiled struct {
	templates []template
	total     int      // the sum of the scenario weights
	noise     []string // the noise operations
}

// template is a scenario with its steps parsed.
type template struct {
	id     string // "<name>#", the prefix of ScenarioSet's trace IDs
	good   bool
	weight int
	steps  []step
	maxLen int // the length of its longest expansion
}

// step is a template event, parsed.
type step struct {
	ev       event.Event
	min, max int
}

func (m Model) compile() *compiled {
	c := &compiled{templates: make([]template, len(m.Scenarios))}
	for i, sc := range m.Scenarios {
		t := template{id: sc.Name + "#", good: sc.Good, weight: sc.Weight, steps: make([]step, len(sc.Events))}
		for j, ev := range sc.Events {
			t.steps[j] = step{ev: event.MustParse(ev.Sym), min: ev.Min, max: ev.Max}
			t.maxLen += ev.Max
		}
		c.templates[i] = t
		c.total += sc.Weight
	}
	for _, n := range m.Noise {
		c.noise = append(c.noise, event.MustParse(n).Op)
	}
	return c
}

// pick samples a scenario by weight with one draw.
func (c *compiled) pick(rng *rand.Rand) *template {
	r := rng.Intn(c.total)
	for i := range c.templates {
		r -= c.templates[i].weight
		if r < 0 {
			return &c.templates[i]
		}
	}
	return &c.templates[len(c.templates)-1]
}

// expand appends an instance of the template to dst, drawing the
// repetition count of each step whose range is not a single count, in
// template order.
func (t *template) expand(rng *rand.Rand, dst []event.Event) []event.Event {
	for _, s := range t.steps {
		n := s.min
		if s.max > s.min {
			n += rng.Intn(s.max - s.min + 1)
		}
		for range n {
			dst = append(dst, s.ev)
		}
	}
	return dst
}

// appendNumbered appends prefix and the decimal i to dst.
func appendNumbered(dst []byte, prefix string, i int) []byte {
	return strconv.AppendInt(append(dst, prefix...), int64(i), 10)
}

// slabEvents is how many events ScenarioSet cuts from one allocation.
const slabEvents = 1024

// ScenarioSet generates n scenario traces directly (as the Strauss front
// end would extract them), returning the multiset and the ground-truth
// labeling of every generated class. Trace i is "<scenario>#<i>".
func (g Generator) ScenarioSet(n int) (*trace.Set, Labeling) {
	c := g.Model.compile()
	rng := rand.New(rand.NewSource(g.Seed))
	set := &trace.Set{}
	labels := Labeling{}
	var (
		slab []event.Event // the traces' events are cut from shared slabs
		id   []byte
	)
	for i := 0; i < n; i++ {
		t := c.pick(rng)
		if cap(slab)-len(slab) < t.maxLen {
			slab = make([]event.Event, 0, max(t.maxLen, slabEvents))
		}
		start := len(slab)
		slab = t.expand(rng, slab)
		id = appendNumbered(id[:0], t.id, i)
		class, _ := set.Add(trace.Trace{ID: string(id), Events: slab[start:len(slab):len(slab)]})
		labels[set.ClassKey(class)] = t.good
	}
	return set, labels
}

// lane is one scenario instance of a run being interleaved: its concrete
// events are pending[next:end].
type lane struct{ next, end int }

// Runs generates whole-program runs: each run interleaves several scenario
// instances over distinct objects, with noise events sprinkled in. The
// returned labeling covers the scenario traces a front end with
// FollowDerived should extract.
//
// Run r is "sim:run<r>". Objects are numbered from 1 across all runs, each
// instance's names in order of first appearance. Before each event the
// interleaving draws whether noise comes first (one chance in four) and
// which noise, then one of the unfinished instances, in instance order.
func (g Generator) Runs(numRuns, scenariosPerRun int) ([]mine.Run, Labeling) {
	c := g.Model.compile()
	rng := rand.New(rand.NewSource(g.Seed))
	labels := Labeling{}
	runs := make([]mine.Run, 0, numRuns)
	nextObj := event.ObjID(1)
	var (
		symbolic []event.Event    // the run's instances, one after another
		bounds   []int            // instance s is symbolic[bounds[s]:bounds[s+1]]
		names    []string         // an instance's names, in order of first appearance
		pending  []event.Concrete // the run's instances, concretized
		lanes    []lane
		ready    []int // the unfinished lanes, in lane order
		all      []event.Concrete
		buf      []byte // each instance's key, then the run's ID
	)
	// obj returns the object the current instance's name stands for: the
	// names are numbered from nextObj in order of first appearance.
	obj := func(name string) event.ObjID {
		if name == "" {
			return 0
		}
		k := slices.Index(names, name)
		if k < 0 {
			k = len(names)
			names = append(names, name)
		}
		return nextObj + event.ObjID(k)
	}
	for r := 0; r < numRuns; r++ {
		symbolic, bounds = symbolic[:0], append(bounds[:0], 0)
		numUses := 0
		for s := 0; s < scenariosPerRun; s++ {
			t := c.pick(rng)
			start := len(symbolic)
			symbolic = t.expand(rng, symbolic)
			buf = trace.Trace{Events: symbolic[start:]}.AppendKey(buf[:0])
			labels.set(buf, t.good)
			for _, e := range symbolic[start:] {
				numUses += len(e.Uses)
			}
			bounds = append(bounds, len(symbolic))
		}

		// Concretize each instance over objects of its own.
		uses := make([]event.ObjID, 0, numUses) // kept by the run's events
		pending, lanes, ready = pending[:0], lanes[:0], ready[:0]
		for s := 0; s < scenariosPerRun; s++ {
			names = names[:0]
			start := len(pending)
			for _, e := range symbolic[bounds[s]:bounds[s+1]] {
				ce := event.Concrete{Op: e.Op, Def: obj(e.Def)}
				if len(e.Uses) > 0 {
					from := len(uses)
					for _, u := range e.Uses {
						uses = append(uses, obj(u))
					}
					ce.Uses = uses[from:len(uses):len(uses)]
				}
				pending = append(pending, ce)
			}
			nextObj += event.ObjID(len(names))
			if len(pending) > start {
				ready = append(ready, len(lanes))
			}
			lanes = append(lanes, lane{next: start, end: len(pending)})
		}

		all = all[:0]
		for len(ready) > 0 {
			if len(c.noise) > 0 && rng.Intn(4) == 0 {
				all = append(all, event.Concrete{Op: c.noise[rng.Intn(len(c.noise))]})
			}
			k := rng.Intn(len(ready))
			l := &lanes[ready[k]]
			all = append(all, pending[l.next])
			l.next++
			if l.next == l.end {
				ready = slices.Delete(ready, k, k+1)
			}
		}
		buf = appendNumbered(buf[:0], "sim:run", r)
		runs = append(runs, mine.Run{ID: string(buf), Events: append([]event.Concrete(nil), all...)})
	}
	return runs, labels
}

// SeedOps returns the operations that define the first-mentioned name of
// each scenario — the natural front-end seeds for the model.
func (m Model) SeedOps() []string {
	seen := map[string]bool{}
	var out []string
	for _, sc := range m.Scenarios {
		e := event.MustParse(sc.Events[0].Sym)
		if e.Def != "" && !seen[e.Op] {
			seen[e.Op] = true
			out = append(out, e.Op)
		}
	}
	return out
}

// Describe renders the model for documentation: one line per scenario.
func (m Model) Describe() string {
	var b strings.Builder
	for _, sc := range m.Scenarios {
		status := "good"
		if !sc.Good {
			status = "bad "
		}
		fmt.Fprintf(&b, "  [%s w=%-2d] %s:", status, sc.Weight, sc.Name)
		for _, ev := range sc.Events {
			if ev.Min == 1 && ev.Max == 1 {
				fmt.Fprintf(&b, " %s", ev.Sym)
			} else {
				fmt.Fprintf(&b, " %s{%d,%d}", ev.Sym, ev.Min, ev.Max)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
