// Strategies: comparing the cost of the labeling strategies of Section 4.2
// on one specification's debugging problem — a single row of Table 3, with
// commentary.
//
// Run with: go run ./examples/strategies [-spec XtFree] [-n 900]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/concept"
	"repro/internal/exp"
	"repro/internal/specs"
)

func main() {
	var (
		name = flag.String("spec", "XtFree", "specification name (see Table 1)")
		n    = flag.Int("n", 0, "scenario draws (0 = evaluation default)")
		seed = flag.Int64("seed", 20030407, "workload seed")
	)
	flag.Parse()
	spec, ok := specs.ByName(*name)
	if !ok {
		log.Fatalf("unknown spec %q", *name)
	}
	cfg := exp.DefaultConfig()
	cfg.Seed = *seed
	cfg.RandomTrials = 256
	if *n > 0 {
		cfg.Scale = func(string) int { return *n }
	}

	fmt.Printf("spec %s: %s\n", spec.Name, spec.Description)
	fmt.Printf("workload model:\n%s\n", spec.Model.Describe())

	e, err := exp.Prepare(spec, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenarios: %d (%d unique classes)\n", e.Set.Total(), e.Set.NumClasses())
	fmt.Printf("reference FA (%s): %d states, %d transitions\n",
		e.RefKind, e.Ref.NumStates(), e.Ref.NumTransitions())
	start := time.Now()
	if _, err := concept.BuildFromTraces(e.Set.Representatives(), e.Ref); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("concept lattice: %d concepts, built in %v\n\n", e.Lattice.Len(), time.Since(start))

	st, err := e.RunStrategies(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cost of labeling (total Cable operations = inspections + labelings):")
	fmt.Printf("  %-22s %d\n", "Baseline (no Cable):", st.Baseline)
	fmt.Printf("  %-22s %d\n", "Expert:", st.Expert)
	fmt.Printf("  %-22s %d\n", "Top-down:", st.TopDown)
	fmt.Printf("  %-22s %d\n", "Bottom-up:", st.BottomUp)
	fmt.Printf("  %-22s %.1f (mean of %d trials)\n", "Random:", st.RandomMean, cfg.RandomTrials)
	if st.Optimal >= 0 {
		fmt.Printf("  %-22s %d\n", "Optimal:", st.Optimal)
	} else {
		fmt.Printf("  %-22s — (search budget exceeded, as for the paper's four largest specs)\n", "Optimal:")
	}

	fmt.Println()
	ratio := float64(st.Expert) / float64(st.Baseline)
	fmt.Printf("the expert needed %.0f%% of the decisions that trace-by-trace labeling needs\n", 100*ratio)
	fmt.Println("(the paper's headline case, XtFree-scale: 28 decisions with Cable vs 224 without)")
}
