// Program: the full circle from a program to a debugged specification.
//
// A small imperative program (internal/prog) plays the role of the
// paper's analyzed software. We use it both ways the paper does:
//
//  1. statically — compile its control flow to an event automaton and
//     check it against a specification with the product-based verifier;
//  2. dynamically — execute it many times, mine a specification from the
//     runs with Strauss, debug the mined spec's scenario traces with
//     concept analysis, and relearn from the traces labeled good.
//
// Run with: go run ./examples/program
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cable"
	"repro/internal/core"
	"repro/internal/mine"
	"repro/internal/prog"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/verify"
)

const src = `
prog editor {
  // An editor buffers its file I/O; sometimes it leaks the handle, and
  // one code path closes a pipe with the wrong call.
  X := fopen();
  loop { fread(X); }
  opt  { fwrite(X); }
  choice { fclose(X); } or { skip; }
  Y := popen();
  fread(Y);
  choice { pclose(Y); } or { fclose(Y); }
}
`

func main() {
	p, err := prog.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("the program under analysis:\n\n", p, "\n")

	// --- Static: the specification is per-object, so project the program
	// onto each variable's protocol and verify each projection.
	spec := specs.Stdio().FA
	for _, v := range p.Vars() {
		model, err := p.Project(v).Compile()
		if err != nil {
			log.Fatal(err)
		}
		conforms, err := verify.Conforms(model, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("static check of %s's protocol against %q: conforms=%v\n", v, spec.Name(), conforms)
		violations, err := verify.Static(model, spec, 6, 4)
		if err != nil {
			log.Fatal(err)
		}
		for _, viol := range violations {
			fmt.Printf("  %s\n", viol)
		}
	}

	// --- Dynamic: execute, mine, debug, relearn.
	runs := p.Runs(rand.New(rand.NewSource(3)), 80)
	miner := mine.Miner{FrontEnd: mine.FrontEnd{Seeds: []string{"fopen", "popen"}, FollowDerived: true}}
	mined, scenarios, err := miner.Mine("editor-mined", runs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmined from %d runs: %d scenario traces (%d unique), FA with %d states\n",
		len(runs), scenarios.Total(), scenarios.NumClasses(), mined.NumStates())

	session, err := core.DebugMined(mined, scenarios)
	if err != nil {
		log.Fatal(err)
	}
	// Label with the correct spec as the oracle (standing in for the
	// expert's judgment).
	for i, t := range session.Representatives() {
		label := cable.Bad
		if spec.Accepts(t) {
			label = cable.Good
		}
		if err := session.LabelTrace(i, label); err != nil {
			log.Fatal(err)
		}
	}
	fixed, err := core.RelearnGood(session, miner)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("debugged spec: %d states, %d transitions\n", fixed.NumStates(), fixed.NumTransitions())
	for _, probe := range []trace.Trace{
		trace.ParseEvents("", "X = fopen()", "fread(X)", "fclose(X)"),
		trace.ParseEvents("", "X = popen()", "fread(X)", "pclose(X)"),
		trace.ParseEvents("", "X = popen()", "fread(X)", "fclose(X)"),
		trace.ParseEvents("", "X = fopen()"),
	} {
		verdict := "rejected"
		if fixed.Accepts(probe) {
			verdict = "accepted"
		}
		fmt.Printf("  %-45s %s\n", probe.Key(), verdict)
	}
}
