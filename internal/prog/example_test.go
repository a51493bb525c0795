package prog_test

import (
	"fmt"
	"math/rand"

	"repro/internal/prog"
	"repro/internal/specs"
	"repro/internal/verify"
)

// Example parses a leaky program, checks it statically against the correct
// stdio specification, and shows the shortest counterexample.
func Example() {
	p, err := prog.Parse(`
prog leaky {
  X := fopen();
  loop { fread(X); }
  choice { fclose(X); } or { skip; }
}`)
	if err != nil {
		panic(err)
	}
	model, err := p.Project("X").Compile()
	if err != nil {
		panic(err)
	}
	spec := specs.Stdio().FA
	ok, err := verify.Conforms(model, spec)
	if err != nil {
		panic(err)
	}
	fmt.Println("conforms:", ok)
	violations, err := verify.Static(model, spec, 4, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("shortest counterexample:", violations[0].Trace.Key())

	// The same program also produces concrete runs for the miner.
	events, _ := p.Execute(rand.New(rand.NewSource(1)), 1)
	fmt.Println("an execution has", len(events) > 0, "events")
	// Output:
	// conforms: false
	// shortest counterexample: X = fopen()
	// an execution has true events
}
