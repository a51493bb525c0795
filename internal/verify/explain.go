package verify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fa"
	"repro/internal/trace"
)

// Explanation describes why a specification rejects a trace: where every
// run died (or that the trace ended short of acceptance) and which events
// the specification would have allowed at that point. It turns a bare
// violation into the actionable message a verification tool shows.
type Explanation struct {
	// At is the offending event index, or len(events) for a trace that
	// ends without reaching an accepting state.
	At int
	// Got is the rejected event's rendering, or "" at end of trace.
	Got string
	// Expected lists the event renderings the specification allows at the
	// rejection point (sorted). For an end-of-trace rejection these are
	// the events that could continue the trace toward acceptance.
	Expected []string
}

// String renders the explanation in one line.
func (e Explanation) String() string {
	want := strings.Join(e.Expected, ", ")
	if want == "" {
		want = "<nothing: the specification allows no continuation>"
	}
	if e.Got == "" {
		return fmt.Sprintf("trace ends at event %d; expected one of: %s", e.At, want)
	}
	return fmt.Sprintf("event %d is %s; expected one of: %s", e.At, e.Got, want)
}

// Explain diagnoses why the specification rejects the trace; ok is false
// when the trace is actually accepted (nothing to explain).
func Explain(spec *fa.FA, t trace.Trace) (Explanation, bool) {
	at := spec.RejectsAt(t)
	if at < 0 {
		return Explanation{}, false
	}
	// Re-simulate to the rejection point to find the live state set there.
	cur := spec.Sim().NewCursor()
	for _, e := range t.Events[:at] {
		cur.Step(e)
	}
	live := make([]bool, spec.NumStates())
	for _, s := range cur.States(nil) {
		live[s] = true
	}
	exp := Explanation{At: at}
	if at < len(t.Events) {
		exp.Got = t.Events[at].String()
	}
	allowed := map[string]bool{}
	for _, tr := range spec.Transitions() {
		if live[tr.From] {
			allowed[tr.Label.String()] = true
		}
	}
	for label := range allowed {
		exp.Expected = append(exp.Expected, label)
	}
	sort.Strings(exp.Expected)
	return exp, true
}
