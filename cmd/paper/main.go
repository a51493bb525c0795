// Command paper regenerates the tables and figures of the evaluation
// (Section 5) from the synthetic workloads.
//
// Usage:
//
//	paper -all                 # every table and figure
//	paper -table 3             # one table (1, 2, or 3)
//	paper -figure 5            # one figure (1..10 or wf)
//	paper -seed 7 -trials 256  # workload seed and Random-strategy trials
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/cliflag"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/textplot"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate one table (1, 2, or 3)")
		figure     = flag.String("figure", "", "regenerate one figure (1..10 or wf)")
		all        = flag.Bool("all", false, "regenerate everything")
		growth     = flag.Bool("growth", false, "lattice-size-vs-transitions analysis (Section 5.2)")
		bugs       = flag.Bool("bugs", false, "bug census by kind (the paper's 199-bugs claim)")
		e2e        = flag.Bool("e2e", false, "mine->debug->relearn round trip vs the correct specs")
		sweep      = flag.String("sweep", "", "Cable-advantage scaling sweep for the named spec (Section 5.3)")
		refabl     = flag.String("refablation", "", "reference-FA ablation for the named spec (Section 2.1)")
		seed       = flag.Int64("seed", exp.DefaultConfig().Seed, "workload generation seed")
		trials     = flag.Int("trials", 1024, "Random-strategy trials to average")
		budget     = flag.Int("optbudget", 0, "Optimal-strategy state budget (0 = default)")
		metrics    = flag.Bool("metrics", false, "collect metrics and dump a snapshot to stderr on exit")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	cliflag.Check(flag.CommandLine, "")
	// Reject flag values the run cannot honour before doing any work.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "table" && (*table < 1 || *table > 3) {
			usageError("-table %d: want 1, 2 or 3", *table)
		}
	})
	if *budget < 0 {
		usageError("-optbudget %d: want 0 (the default budget) or a positive state count", *budget)
	}
	if *trials < 1 {
		usageError("-trials %d: want at least 1", *trials)
	}
	if *figure != "" && !slices.Contains(figureKeys, *figure) {
		usageError("-figure %q: want 1..10 or wf", *figure)
	}
	if *sweep != "" && !isSpec(*sweep) {
		usageError("-sweep %q: no such spec", *sweep)
	}
	if *refabl != "" && !isSpec(*refabl) {
		usageError("-refablation %q: no such spec", *refabl)
	}
	var err error
	stop, err = obs.SetupCLI(obs.CLIConfig{Metrics: *metrics, CPUProfile: *cpuprofile, MemProfile: *memprofile})
	die(err)
	defer stop()
	cfg := exp.DefaultConfig()
	cfg.Seed = *seed
	cfg.RandomTrials = *trials
	cfg.OptimalBudget = *budget

	if !*all && *table == 0 && *figure == "" && !*growth && *sweep == "" && !*bugs && !*e2e && *refabl == "" {
		flag.Usage()
		stop()
		os.Exit(2)
	}
	if *all || *growth {
		pts, err := exp.LatticeGrowth(cfg)
		die(err)
		fmt.Println(exp.FormatGrowth(pts))
		var xs, ys []float64
		for _, p := range pts {
			xs = append(xs, float64(p.Attrs))
			ys = append(ys, float64(p.Concepts))
		}
		fmt.Println(textplot.Plot(56, 12, textplot.Series{Name: "concepts vs transitions", X: xs, Y: ys}))
	}
	if *all || *bugs {
		rows, err := exp.BugCensus(cfg)
		die(err)
		fmt.Println(exp.FormatBugs(rows))
	}
	if *all || *e2e {
		rows, err := exp.EndToEndAll(cfg)
		die(err)
		fmt.Println(exp.FormatE2E(rows))
	}
	if *sweep != "" {
		pts, err := exp.AdvantageSweep(*sweep, cfg, []int{50, 100, 200, 400, 800, 1600})
		die(err)
		fmt.Println(exp.FormatSweep(*sweep, pts))
		var xs, expert, baseline []float64
		for _, p := range pts {
			xs = append(xs, float64(p.Unique))
			expert = append(expert, float64(p.Expert))
			baseline = append(baseline, float64(p.Baseline))
		}
		fmt.Println(textplot.Plot(56, 12,
			textplot.Series{Name: "baseline", X: xs, Y: baseline},
			textplot.Series{Name: "expert", X: xs, Y: expert}))
	}
	if *refabl != "" {
		rows, err := exp.ReferenceAblation(*refabl, cfg)
		die(err)
		fmt.Println(exp.FormatRefAblation(*refabl, rows))
	}
	if *all || *table == 1 {
		fmt.Println(exp.FormatTable1(exp.Table1()))
	}
	if *all || *table == 2 {
		rows, err := exp.Table2(cfg)
		die(err)
		fmt.Println(exp.FormatTable2(rows))
	}
	if *all || *table == 3 {
		rows, err := exp.Table3(cfg)
		die(err)
		fmt.Println(exp.FormatTable3(rows))
		fmt.Println(exp.FormatHeadline(exp.ComputeHeadline(rows), len(rows)))
	}
	if *all || *figure != "" {
		figs, err := exp.Figures(cfg)
		die(err)
		if *all {
			for _, key := range figureKeys {
				fmt.Println(figs[key])
			}
		} else {
			fmt.Println(figs[*figure])
		}
	}
}

// figureKeys are the figures exp.Figures renders, in paper order.
var figureKeys = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "wf"}

// isSpec reports whether name names a specification -sweep and
// -refablation can run.
func isSpec(name string) bool {
	_, ok := specs.ByName(name)
	return ok
}

// stop flushes profiles and the metrics snapshot; die must run it before
// os.Exit, which skips deferred calls.
var stop = func() {}

// usageError reports a flag value that cannot be honoured and exits with
// status 2, as flag does for malformed flags.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paper: "+format+"\n", args...)
	os.Exit(2)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		stop()
		os.Exit(1)
	}
}
