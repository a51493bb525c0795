package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analyzers"
)

// moduleLoad type-checks this module with its test variants, then
// perfbench, once for the module-wide checks of this package.
var moduleLoad = sync.OnceValues(func() ([][]*analysis.Package, error) {
	return analysis.Load(".", "perfbench")
})

// TestCablevet runs the invariant suite (internal/analysis/analyzers)
// over the package variants `go vet ./...` vets: each package with its
// in-package test files (the plain package when it has none), and each
// external test package. The variants go recompiles for another
// package's test binary are left out, as go vet leaves them out, and
// every file of the module must be in a swept variant. Each finding, and
// each //cablevet:ignore directive that suppresses none, fails the test.
func TestCablevet(t *testing.T) {
	mods, err := moduleLoad()
	if err != nil {
		t.Fatal(err)
	}
	tested := map[string]bool{}
	for _, p := range mods[0] {
		if p.Types.Path() == p.ForTest {
			tested[p.ForTest] = true
		}
	}
	var findings []string
	swept := map[string]bool{} // every file of the module: is it swept?
	for _, p := range mods[0] {
		path := p.Types.Path()
		vetted := p.ForTest == "" && !tested[path] || p.ForTest != "" && (path == p.ForTest || path == p.ForTest+"_test")
		for _, f := range p.Files {
			name := p.Fset.File(f.Pos()).Name()
			swept[name] = swept[name] || vetted
		}
		if !vetted {
			continue
		}
		diags, err := analysis.RunPackage(p, analyzers.All())
		if err != nil {
			t.Error(err)
		}
		for _, d := range diags {
			findings = append(findings, fmt.Sprintf("%s: %s: %s", d.Position(p.Fset), d.Analyzer, d.Message))
		}
	}
	for name, ok := range swept {
		if !ok {
			t.Errorf("%s is in no swept package", name)
		}
	}
	if len(findings) == 0 {
		return
	}
	t.Log("analyzers:")
	for _, a := range analyzers.All() {
		t.Logf("  %-12s %s", a.Name, a.Doc)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
