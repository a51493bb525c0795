// Command cable is the interactive specification-debugging tool: a
// terminal rendition of the paper's Dotty-based Cable. It loads a set of
// traces (and optionally a reference FA), builds the concept lattice, and
// lets the user explore concepts, view summaries, label traces en masse,
// start Focus sub-sessions, and save/restore labelings.
//
// Usage:
//
//	cable -traces scenarios.txt [-fa spec.fa]
//	cable -workspace session.cws
//	cable lint -fa spec.fa [-traces scenarios.txt]
//	cable lint -corpus
//	cable stream -fa spec.fa [-window N] events.ndjson...
//
// A workspace file (written by the "workspace" command) bundles traces,
// reference FA, and labels, so a labeling session can be resumed. Type
// "help" at the prompt for the command list; see internal/repl for the
// full interface.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cable"
	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/trace"
	"repro/internal/workspace"
)

func main() {
	// Subcommands dispatch before flag parsing; everything else is the
	// classic flags-only interactive entry point.
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		runLint(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "stream" {
		runStream(os.Args[2:])
		return
	}
	var (
		tracesPath = flag.String("traces", "", "trace file")
		faPath     = flag.String("fa", "", "reference FA file (default: learn one)")
		wsPath     = flag.String("workspace", "", "resume from a workspace file")
		metrics    = flag.Bool("metrics", false, "collect metrics and dump a snapshot to stderr on exit")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	var unread []string // a workspace holds its own traces and reference FA
	if *wsPath != "" {
		unread = []string{"traces", "fa"}
	}
	cliflag.Check(flag.CommandLine, "-workspace", unread...)
	var err error
	stop, err = obs.SetupCLI(obs.CLIConfig{Metrics: *metrics, CPUProfile: *cpuprofile, MemProfile: *memprofile})
	die(err)
	defer stop()
	if *wsPath != "" {
		wf, err := os.Open(*wsPath)
		die(err)
		session, err := workspace.Load(wf)
		die(wf.Close())
		die(err)
		fmt.Printf("resumed workspace %s\n", *wsPath)
		repl.New(session, os.Stdout).Run(os.Stdin)
		return
	}
	if *tracesPath == "" {
		flag.Usage()
		stop()
		os.Exit(2)
	}
	f, err := os.Open(*tracesPath)
	die(err)
	set, err := trace.Read(f)
	die(f.Close())
	die(err)
	if set.Total() == 0 {
		die(fmt.Errorf("no traces in %s", *tracesPath))
	}
	var ref *fa.FA
	if *faPath != "" {
		ff, err := os.Open(*faPath)
		die(err)
		ref, err = fa.Read(ff)
		die(ff.Close())
		die(err)
	} else {
		ref = core.ReferenceFA(set)
		fmt.Printf("learned reference FA: %d states, %d transitions\n", ref.NumStates(), ref.NumTransitions())
	}
	session, err := cable.NewSession(set, ref)
	die(err)
	repl.New(session, os.Stdout).Run(os.Stdin)
}

// stop flushes profiles and the metrics snapshot; die must run it before
// os.Exit, which skips deferred calls.
var stop = func() {}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cable:", err)
		stop()
		os.Exit(1)
	}
}
