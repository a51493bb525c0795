// Stream-workload generation: scripted per-stream event sequences for
// driving the online checker (internal/stream) and cabled's /v1/streams
// endpoints. A stream script is a concatenation of scenario instances
// drawn from the model by weight, so a looping specification (one whose
// accept state is also its start) sees back-to-back protocol instances
// the way a long-lived production stream would.
//
// Ground truth is looser online than in batch: a misuse scenario fires a
// violation at its offending event, but a leak only surfaces when the
// next instance begins (the acquire finds no surviving run) or when the
// stream finalizes mid-protocol — and the checker's post-violation reset
// can then reject the remainder of that instance too. Scripts therefore
// carry the count of erroneous instances as a lower-bound expectation,
// not an exact violation count.
package xtrace

import (
	"math/rand"

	"repro/internal/event"
	"repro/internal/trace"
)

// StreamScript is one generated stream: an ordered event sequence to
// feed a checker, with the ground-truth count of erroneous scenario
// instances it contains.
type StreamScript struct {
	// ID names the stream within its generated batch.
	ID string
	// Events is the full event sequence, scenario instances concatenated
	// in order.
	Events []event.Event
	// Bad counts the erroneous scenario instances in the script. Online
	// checking reports at least one violation per script with Bad > 0
	// (counting the finalization violation); see the package comment for
	// why the count is a lower bound.
	Bad int
}

// Streams generates n stream scripts of scenariosPerStream scenario
// instances each, sampling by weight, and the ground-truth labeling of
// every instance's trace class. Script i is "stream<i>". Generation is
// deterministic for a given seed and independent of the other generator
// methods.
func (g Generator) Streams(n, scenariosPerStream int) ([]StreamScript, Labeling) {
	c := g.Model.compile()
	rng := rand.New(rand.NewSource(g.Seed))
	labels := Labeling{}
	scripts := make([]StreamScript, 0, n)
	var (
		events []event.Event
		buf    []byte // each script's ID, then each instance's key
	)
	for i := 0; i < n; i++ {
		buf = appendNumbered(buf[:0], "stream", i)
		s := StreamScript{ID: string(buf)}
		events = events[:0]
		for j := 0; j < scenariosPerStream; j++ {
			t := c.pick(rng)
			start := len(events)
			events = t.expand(rng, events)
			buf = trace.Trace{Events: events[start:]}.AppendKey(buf[:0])
			labels.set(buf, t.good)
			if !t.good {
				s.Bad++
			}
		}
		s.Events = append([]event.Event(nil), events...)
		scripts = append(scripts, s)
	}
	return scripts, labels
}
