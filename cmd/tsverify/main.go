// Command tsverify checks program behaviour against a temporal
// specification and reports the violation traces — the verification-tool
// role of Section 2.1. It has a dynamic mode (check recorded scenario
// traces) and a static mode (check a program-model FA exhaustively via the
// product construction). Violations can be ranked by statistical surprise
// and written to a trace file for debugging with cmd/cable.
//
// Usage:
//
//	tsverify -fa spec.fa -traces scenarios.txt [-rank] [-violations out.txt]
//	tsverify -pattern "X = fopen() fclose(X)" -traces scenarios.txt
//	tsverify -fa spec.fa -program model.fa [-maxlen 10] [-limit 100]
//	tsverify -fa spec.fa -progsrc program.prog
//	tsverify -fa spec.fa -lint [-traces scenarios.txt] [-ref correct.fa]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/cliflag"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/speclint"
	"repro/internal/trace"
	"repro/internal/verify"
)

func main() {
	var (
		faPath     = flag.String("fa", "", "specification FA file (required unless -pattern)")
		pattern    = flag.String("pattern", "", "specification as a regular expression over events")
		tracesPath = flag.String("traces", "", "scenario trace file (dynamic checking)")
		progPath   = flag.String("program", "", "program-model FA file (static checking)")
		progSrc    = flag.String("progsrc", "", "program source file (compiled and checked statically)")
		maxLen     = flag.Int("maxlen", 10, "static checking: maximum violation length")
		limit      = flag.Int("limit", 100, "static checking: maximum violations reported")
		outPath    = flag.String("violations", "", "write violating traces here")
		ranked     = flag.Bool("rank", false, "rank violation classes most-suspicious first (statistical surprise)")
		explain    = flag.Bool("explain", false, "diagnose each violation: offending event and the events the spec expected")
		lint       = flag.Bool("lint", false, "lint the specification and exit (no verification)")
		refPath    = flag.String("ref", "", "lint mode: diff the spec against this reference FA by language")
		quiet      = flag.Bool("q", false, "print only the summary line")
		metrics    = flag.Bool("metrics", false, "collect metrics and dump a snapshot to stderr on exit")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	if (*faPath == "" && *pattern == "") || (!*lint && *tracesPath == "" && *progPath == "" && *progSrc == "") {
		flag.Usage()
		os.Exit(2)
	}
	// A bound that enumerates nothing would report a clean result.
	if *maxLen < 0 {
		usageError("-maxlen %d: want 0 or more events", *maxLen)
	}
	if *limit < 1 {
		usageError("-limit %d: want at least 1", *limit)
	}
	// -pattern replaces -fa, and each mode reads only its own flags.
	if *pattern != "" {
		cliflag.Check(flag.CommandLine, "-pattern", "fa")
	}
	switch {
	case *lint:
		cliflag.Check(flag.CommandLine, "-lint", "program", "progsrc", "maxlen", "limit", "violations", "rank", "explain", "q")
	case *progSrc != "":
		cliflag.Check(flag.CommandLine, "-progsrc", "program", "traces", "ref")
	case *progPath != "":
		cliflag.Check(flag.CommandLine, "-program", "traces", "ref")
	default:
		cliflag.Check(flag.CommandLine, "-traces", "maxlen", "limit", "ref")
	}
	// -q prints only the summary; -rank lists classes without diagnoses.
	switch {
	case *quiet:
		cliflag.Check(flag.CommandLine, "-q", "rank", "explain")
	case *ranked:
		cliflag.Check(flag.CommandLine, "-rank", "explain")
	}
	var spec *fa.FA
	var err error
	stop, err = obs.SetupCLI(obs.CLIConfig{Metrics: *metrics, CPUProfile: *cpuprofile, MemProfile: *memprofile})
	die(err)
	defer stop()
	if *pattern != "" {
		spec, err = fa.Compile("pattern", *pattern)
		die(err)
	} else {
		spec, err = readFA(*faPath)
		die(err)
	}
	if *lint {
		runLint(spec, *tracesPath, *refPath)
		return
	}

	var (
		set        *trace.Set
		vset       *trace.Set
		violations []verify.Violation
		checked    int
	)
	switch {
	case *progSrc != "":
		src, err := os.ReadFile(*progSrc)
		die(err)
		parsed, err := prog.Parse(string(src))
		die(err)
		// Specifications are per-object: check each variable's projected
		// protocol separately and pool the violations.
		vset = &trace.Set{}
		for _, v := range parsed.Vars() {
			program, err := parsed.Project(v).Compile()
			die(err)
			vs, raw, err := verify.StaticSet(program, spec, *maxLen, *limit)
			die(err)
			vset.AddAll(vs)
			violations = append(violations, raw...)
		}
		set = vset
		checked = vset.Total()
	case *progPath != "":
		program, err := readFA(*progPath)
		die(err)
		vset, violations, err = verify.StaticSet(program, spec, *maxLen, *limit)
		die(err)
		set = vset
		checked = vset.Total()
	default:
		tf, err := os.Open(*tracesPath)
		die(err)
		set, err = trace.Read(tf)
		die(tf.Close())
		die(err)
		vset, violations = verify.CheckSet(spec, set)
		checked = set.Total()
	}
	static := *progPath != "" || *progSrc != ""

	switch {
	case *quiet:
	case *ranked:
		ranker, err := rank.New(set)
		die(err)
		for i, rep := range ranker.Rank(violations) {
			surprise := "∞"
			if !math.IsInf(rep.Surprise, 1) {
				surprise = fmt.Sprintf("%.2f", rep.Surprise)
			}
			fmt.Printf("#%d [x%d, surprise %s bits/event] %s\n", i+1, rep.Count, surprise, rep.Trace.Key())
		}
	default:
		for _, v := range violations {
			fmt.Printf("violation [%s]: %s\n", v.Trace.ID, v)
			if *explain {
				if exp, ok := verify.Explain(spec, v.Trace); ok {
					fmt.Printf("  -> %s\n", exp)
				}
			}
		}
	}
	if static {
		fmt.Printf("tsverify: %d static violation(s) of %q up to length %d (%d unique)\n",
			vset.Total(), spec.Name(), *maxLen, vset.NumClasses())
	} else {
		fmt.Printf("tsverify: %d of %d traces violate %q (%d unique violations)\n",
			vset.Total(), checked, spec.Name(), vset.NumClasses())
	}
	if *outPath != "" {
		out, err := os.Create(*outPath)
		die(err)
		err = trace.Write(out, vset)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		die(err)
	}
	if vset.Total() > 0 {
		stop()
		os.Exit(1)
	}
}

// runLint checks the specification itself (internal/speclint) instead of
// checking traces against it: a spec that never flags anything, or whose
// alphabet has drifted from the traces, makes every verification result
// vacuously misleading. With a reference FA the spec is also diffed by
// language, and each disagreement prints its concrete witness trace.
// Exits 1 on findings so CI can gate on it.
func runLint(spec *fa.FA, tracesPath, refPath string) {
	var set *trace.Set
	if tracesPath != "" {
		tf, err := os.Open(tracesPath)
		die(err)
		set, err = trace.Read(tf)
		die(tf.Close())
		die(err)
	}
	var ref *fa.FA
	if refPath != "" {
		var err error
		ref, err = readFA(refPath)
		die(err)
	}
	findings, err := speclint.Check(spec, set, ref)
	die(err)
	for _, f := range findings {
		fmt.Println(f)
		if f.Witness != "" {
			fmt.Printf("  witness: %s\n", f.Witness)
		}
	}
	if len(findings) > 0 {
		fmt.Printf("tsverify: %d lint finding(s) in %q\n", len(findings), spec.Name())
		stop()
		os.Exit(1)
	}
	fmt.Printf("tsverify: spec %q lints clean\n", spec.Name())
}

func readFA(path string) (*fa.FA, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fa.Read(f)
}

// stop flushes profiles and the metrics snapshot; die must run it before
// os.Exit, which skips deferred calls.
var stop = func() {}

// usageError reports a flag value that cannot be honoured and exits with
// status 2, as flag does for malformed flags.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tsverify: "+format+"\n", args...)
	os.Exit(2)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsverify:", err)
		stop()
		os.Exit(1)
	}
}
