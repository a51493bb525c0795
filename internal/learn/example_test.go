package learn_test

import (
	"fmt"

	"repro/internal/learn"
	"repro/internal/trace"
)

// Example learns a specification FA from scenario traces with the
// sk-strings method and shows that merging generalizes repetition.
func Example() {
	traces := []trace.Trace{
		trace.ParseEvents("", "X = fopen()", "fclose(X)"),
		trace.ParseEvents("", "X = fopen()", "fread(X)", "fclose(X)"),
		trace.ParseEvents("", "X = fopen()", "fread(X)", "fread(X)", "fclose(X)"),
	}
	res := learn.DefaultLearner.MustLearn("stdio", traces)

	unseen := trace.ParseEvents("", "X = fopen()", "fread(X)", "fread(X)", "fread(X)", "fclose(X)")
	fmt.Println("generalizes unseen repetition:", res.FA.Accepts(unseen))

	// The stochastic reading scores traces by training frequency.
	p, _ := res.Probability(traces[0])
	fmt.Println("P(open;close) > 0:", p > 0)

	// Coring drops rare transitions — the old, blunt error-removal knob.
	cored := learn.Core(res, 2)
	fmt.Println("cored keeps the common path:",
		cored.Accepts(trace.ParseEvents("", "X = fopen()", "fread(X)", "fclose(X)")))
	// Output:
	// generalizes unseen repetition: true
	// P(open;close) > 0: true
	// cored keeps the common path: true
}

// ExampleKTails contrasts the frequency-blind k-tails learner.
func ExampleKTails() {
	traces := []trace.Trace{
		trace.ParseEvents("", "a()", "z()"),
		trace.ParseEvents("", "a()", "a()", "z()"),
		trace.ParseEvents("", "a()", "a()", "a()", "z()"),
	}
	res, err := learn.KTails{K: 1}.Learn("loop", traces)
	if err != nil {
		panic(err)
	}
	long := trace.ParseEvents("", "a()", "a()", "a()", "a()", "a()", "z()")
	fmt.Println("k-tails folds the loop:", res.FA.Accepts(long))
	// Output:
	// k-tails folds the loop: true
}
