// Command cablevet runs the repository's invariant suite (obsspan,
// ctxpropagate, errwrapline, lockheld, poolarena, errenvelope) as a go
// vet tool:
//
//	go build -o bin/cablevet ./cmd/cablevet
//	go vet -vettool=$(pwd)/bin/cablevet ./...
//
// The go command invokes cablevet once per package with a vet.cfg,
// caching results across builds; this is the CI lane. Any other
// invocation prints the usage and exits 2.
//
// Findings are suppressed per line with
//
//	//cablevet:ignore <analyzer|all> [reason]
//
// placed on the flagged line or the line directly above it.
package main

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/analyzers"
)

func main() {
	if analysis.HandleVetFlags(os.Args[1:]) {
		return
	}
	if len(os.Args) != 2 || !analysis.IsVetConfig(os.Args[1]) {
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(pwd)/bin/cablevet [packages]\n\nanalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		os.Exit(2)
	}
	os.Exit(runVetTool(os.Args[1]))
}

func runVetTool(cfg string) int {
	diags, fset, err := analysis.RunUnitchecker(cfg, analyzers.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "cablevet: %v\n", err)
		return 1
	}
	for _, d := range diags {
		p := d.Position(fset)
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s\n", p.Filename, p.Line, p.Column, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
