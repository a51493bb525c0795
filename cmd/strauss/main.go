// Command strauss is the specification miner (Figure 7): it extracts
// per-object scenario traces from whole-program execution traces and learns
// a specification FA from them with the sk-strings method.
//
// Usage:
//
//	strauss -runs runs.txt -seeds fopen,popen [-core 3] [-scenarios out.txt] [-o spec.fa]
//	strauss -relearn good.txt [-o spec.fa]
//
// Run files hold one trace record per program run (see internal/trace's
// format) with concrete object identities written as plain names: the
// front end treats every distinct argument name within a run as a distinct
// object.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/mine"
	"repro/internal/trace"
)

func main() {
	var (
		runsPath  = flag.String("runs", "", "whole-program trace file")
		seeds     = flag.String("seeds", "", "comma-separated seed operations (default: every defining operation)")
		coreAt    = flag.Int("core", 0, "coring threshold (0 = off)")
		scenarios = flag.String("scenarios", "", "also write extracted scenario traces here")
		relearn   = flag.String("relearn", "", "skip the front end: learn from this scenario-trace file")
		output    = flag.String("o", "", "write the specification FA here (default stdout)")
		k         = flag.Int("k", learn.DefaultLearner.K, "sk-strings k")
		s         = flag.Float64("s", learn.DefaultLearner.S, "sk-strings probability mass")
	)
	flag.Parse()
	// Reject flag values the learner cannot honour before doing any work.
	if *k < 1 {
		usageError("-k %d: want at least 1", *k)
	}
	if !(*s > 0 && *s <= 1) {
		usageError("-s %v: want a probability mass in (0, 1]", *s)
	}
	if *coreAt < 0 {
		usageError("-core %d: want 0 (off) or a positive count", *coreAt)
	}

	backend := mine.BackEnd{
		Learner:       learn.Learner{K: *k, S: *s, Agreement: learn.And},
		CoreThreshold: *coreAt,
	}

	var (
		set *trace.Set
		err error
	)
	switch {
	case *relearn != "":
		set, err = readTraces(*relearn)
		die(err)
	case *runsPath != "":
		runSet, err := readTraces(*runsPath)
		die(err)
		runs := toRuns(runSet)
		fe := mine.FrontEnd{Seeds: splitSeeds(*seeds, runs), FollowDerived: true}
		set = fe.ExtractAll(runs)
		fmt.Fprintf(os.Stderr, "strauss: extracted %d scenario traces (%d unique)\n", set.Total(), set.NumClasses())
		if *scenarios != "" {
			die(writeTraces(*scenarios, set))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	spec, err := backend.Infer("mined", set)
	die(err)
	fmt.Fprintf(os.Stderr, "strauss: learned FA with %d states, %d transitions\n", spec.NumStates(), spec.NumTransitions())
	if *output == "" {
		die(fa.Write(os.Stdout, spec))
		return
	}
	out, err := os.Create(*output)
	die(err)
	err = fa.Write(out, spec)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	die(err)
}

// toRuns converts symbolic run records into concrete runs: each distinct
// name within a record becomes an object identity. A record without an ID
// becomes "run<n>", n being its index among the returned runs.
func toRuns(set *trace.Set) []mine.Run {
	var runs []mine.Run
	next := event.ObjID(1)
	for _, c := range set.Classes() {
		for j := 0; j < c.Count; j++ {
			id := c.IDs[j]
			if id == "" {
				id = fmt.Sprintf("run%d", len(runs))
			}
			objs := map[string]event.ObjID{}
			alloc := func(name string) event.ObjID {
				if name == "" {
					return 0
				}
				if o, ok := objs[name]; ok {
					return o
				}
				objs[name] = next
				next++
				return objs[name]
			}
			var events []event.Concrete
			for _, e := range c.Rep.Events {
				ce := event.Concrete{Op: e.Op, Def: alloc(e.Def)}
				for _, u := range e.Uses {
					ce.Uses = append(ce.Uses, alloc(u))
				}
				events = append(events, ce)
			}
			runs = append(runs, mine.Run{ID: id, Events: events})
		}
	}
	return runs
}

// splitSeeds parses -seeds, defaulting to every operation that defines an
// object anywhere in the input.
func splitSeeds(arg string, runs []mine.Run) []string {
	if arg != "" {
		return strings.Split(arg, ",")
	}
	seen := map[string]bool{}
	var out []string
	for _, r := range runs {
		for _, e := range r.Events {
			if e.Def != 0 && !seen[e.Op] {
				seen[e.Op] = true
				out = append(out, e.Op)
			}
		}
	}
	return out
}

func readTraces(path string) (*trace.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

func writeTraces(path string, set *trace.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.Write(f, set)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// usageError reports a flag value that cannot be honoured and exits with
// status 2, as flag does for malformed flags.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "strauss: "+format+"\n", args...)
	os.Exit(2)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "strauss:", err)
		os.Exit(1)
	}
}
