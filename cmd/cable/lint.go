package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflag"
	"repro/internal/fa"
	"repro/internal/speclint"
	"repro/internal/specs"
	"repro/internal/trace"
)

// runLint implements the "cable lint" subcommand: the structural and
// semantic checks of specification automata (internal/speclint) run
// before any lattice is built. With -ref it also diffs the spec against
// a reference automaton by language; -witness prints the concrete
// counterexample trace under each finding that has one. It exits 1 when
// any finding is reported, so it slots into CI.
//
//	cable lint -fa spec.fa [-traces scenarios.txt] [-ref correct.fa] [-witness]
//	cable lint -corpus [-witness]
func runLint(args []string) {
	fs := flag.NewFlagSet("cable lint", flag.ExitOnError)
	var (
		faPath     = fs.String("fa", "", "specification FA file to lint")
		tracesPath = fs.String("traces", "", "optional trace file; enables alphabet checking")
		refPath    = fs.String("ref", "", "optional reference FA; enables the language diff")
		witness    = fs.Bool("witness", false, "print the witness trace under each finding that carries one")
		corpus     = fs.Bool("corpus", false, "lint every shipped paper specification instead of one file")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: cable lint -fa spec.fa [-traces scenarios.txt] [-ref correct.fa] [-witness]")
		fmt.Fprintln(fs.Output(), "       cable lint -corpus [-witness]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	var unread []string // the corpus replaces the one spec and its inputs
	if *corpus {
		unread = []string{"fa", "traces", "ref"}
	}
	cliflag.Check(fs, "-corpus", unread...)

	var findings []speclint.Finding
	specCount := 0
	switch {
	case *corpus:
		// Corpus mode runs every automaton-only rule per spec, then the
		// cross-spec duplicate/subsumption pass over the whole set.
		var fas []*fa.FA
		for _, sp := range append(specs.All(), specs.Stdio()) {
			specCount++
			findings = append(findings, speclint.LintAll(sp.FA)...)
			fas = append(fas, sp.FA)
		}
		cross, err := speclint.Corpus(fas)
		die(err)
		findings = append(findings, cross...)
	case *faPath != "":
		spec := readFAFile(*faPath)
		specCount++
		var set *trace.Set
		if *tracesPath != "" {
			tf, err := os.Open(*tracesPath)
			die(err)
			set, err = trace.Read(tf)
			die(tf.Close())
			die(err)
		}
		var ref *fa.FA
		if *refPath != "" {
			ref = readFAFile(*refPath)
		}
		var err error
		findings, err = speclint.Check(spec, set, ref)
		die(err)
	default:
		fs.Usage()
		stop()
		os.Exit(2)
	}

	for _, f := range findings {
		fmt.Println(f)
		if *witness && f.Witness != "" {
			fmt.Printf("  witness: %s\n", f.Witness)
		}
	}
	if len(findings) > 0 {
		fmt.Printf("cable lint: %d finding(s) in %d spec(s)\n", len(findings), specCount)
		stop()
		os.Exit(1)
	}
	fmt.Printf("cable lint: %d spec(s) clean\n", specCount)
}

// readFAFile loads one automaton from the fa text format, dying on any
// failure.
func readFAFile(path string) *fa.FA {
	f, err := os.Open(path)
	die(err)
	m, err := fa.Read(f)
	die(f.Close())
	die(err)
	return m
}
