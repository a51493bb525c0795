package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/fa"
	"repro/internal/stream"
)

// runStream implements the "cable stream" subcommand: offline replay of
// NDJSON event streams through the online checker (internal/stream),
// the command-line counterpart of cabled's /v1/streams endpoints. Each
// file is one stream, checked independently against the specification
// with bounded memory; violations print with their windowed
// counterexample, and the command exits 1 when any stream violates —
// including streams that end mid-protocol — so it slots into CI.
//
//	cable stream -fa spec.fa [-window N] events.ndjson...
//
// With no files, events are read from standard input.
func runStream(args []string) {
	fs := flag.NewFlagSet("cable stream", flag.ExitOnError)
	var (
		faPath = fs.String("fa", "", "specification FA file to check against")
		window = fs.Int("window", 0, fmt.Sprintf("violation window size (default %d, max %d)", stream.DefaultWindow, stream.MaxWindow))
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: cable stream -fa spec.fa [-window N] events.ndjson...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *faPath == "" {
		fs.Usage()
		stop()
		os.Exit(2)
	}
	if *window < 0 {
		fmt.Fprintf(os.Stderr, "cable stream: -window %d: want 0 (the default, %d) or a positive size\n", *window, stream.DefaultWindow)
		os.Exit(2)
	}
	ff, err := os.Open(*faPath)
	die(err)
	spec, err := fa.Read(ff)
	die(ff.Close())
	die(err)
	sim := spec.Sim()

	files := fs.Args()
	stdin := false
	if len(files) == 0 {
		files = []string{"-"}
		stdin = true
	}
	totalEvents, totalViolations, totalIssues := uint64(0), 0, 0
	for _, path := range files {
		name := path
		var src *os.File
		if stdin {
			name, src = "<stdin>", os.Stdin
		} else {
			src, err = os.Open(path)
			die(err)
		}
		c := stream.New(sim, stream.Config{Window: *window})
		// Ingest reads at most its line buffer's free space per call;
		// the bufio.Reader keeps that from costing a read(2) each.
		_, issues, err := stream.Ingest(c, bufio.NewReader(src), func(v stream.Violation) {
			fmt.Printf("%s: %s\n", name, v)
		})
		if !stdin {
			die(src.Close())
		}
		die(err)
		for _, iss := range issues {
			fmt.Fprintf(os.Stderr, "cable stream: %s: %v\n", name, iss.Err)
		}
		totalIssues += len(issues)
		if v, fired := c.Finalize(); fired {
			fmt.Printf("%s: %s\n", name, v)
		}
		totalEvents += c.Events()
		totalViolations += c.Violations()
	}
	fmt.Printf("cable stream: %d event(s), %d violation(s) against %s\n", totalEvents, totalViolations, spec.Name())
	if totalViolations > 0 || totalIssues > 0 {
		stop()
		os.Exit(1)
	}
}
