// Package analysis is a self-contained static-analysis framework in the
// shape of golang.org/x/tools/go/analysis, reimplemented over the
// standard library's go/ast and go/types because this repository carries
// no module dependencies. It hosts the project-specific invariant
// checkers of internal/analysis/analyzers (cablevet): an Analyzer
// inspects one type-checked package (a Pass) and reports Diagnostics.
//
// One loader feeds it. Load type-checks a module and its test variants
// from source, for the root package's module-wide checks: the cablevet
// sweep runs every analyzer over the variants `go vet ./...` would vet.
// LoadDir loads one golden package for the analysistest runner.
//
// Diagnostics can be suppressed at the source line with a comment of the
// form
//
//	//cablevet:ignore <analyzer> [reason]
//
// placed on the flagged line or the line above it. The analyzer name
// "all" suppresses every checker. Suppressions are applied centrally by
// RunPackage, which also reports a directive that suppresses nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects the Pass and reports
// findings through pass.Report; the error return is for operational
// failures (a checker that cannot run), not for findings.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, suppression
	// comments, and test golden files. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description; the analyzer catalogue
	// that heads a failing cablevet sweep lists it.
	Doc string
	// Run performs the analysis.
	Run func(*Pass) error
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding. The driver attaches the analyzer
	// name and applies suppression comments.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the static type of e, or nil when untyped.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, consulting both
// uses and definitions.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
}

// Position resolves a diagnostic's position against a file set.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// ignoreDirective is the comment prefix of a suppression.
const ignoreDirective = "//cablevet:ignore"

// directive is one suppression comment. It silences diagnostics of the
// named analyzer ("all": of every analyzer) on its own line and the next,
// so it works both trailing a statement and on its own line above one.
type directive struct {
	pos  token.Pos
	file string
	line int
	name string
	used bool
}

// collectDirectives scans the package's comments for ignore directives.
func collectDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var dirs []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignoreDirective)
				fields := strings.Fields(rest)
				if !ok || len(fields) == 0 {
					continue
				}
				p := fset.Position(c.Pos())
				dirs = append(dirs, directive{pos: c.Pos(), file: p.Filename, line: p.Line, name: fields[0]})
			}
		}
	}
	return dirs
}

// suppress reports whether a directive covers a diagnostic of the named
// analyzer at p, and marks every directive that does as used.
func suppress(dirs []directive, p token.Position, analyzer string) bool {
	hit := false
	for i := range dirs {
		d := &dirs[i]
		if d.file == p.Filename && (d.line == p.Line || d.line+1 == p.Line) && (d.name == analyzer || d.name == "all") {
			d.used, hit = true, true
		}
	}
	return hit
}

// RunPackage runs every analyzer over one loaded package and returns the
// surviving (non-suppressed) diagnostics sorted by position. A directive
// that suppressed nothing in this run is itself a diagnostic, reported
// under the analyzer it names, so a fixed finding cannot leave a stale
// suppression behind. Analyzer errors are returned joined after all
// analyzers have run.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := collectDirectives(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	var errs []string
	for _, a := range analyzers {
		a := a
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d Diagnostic) {
				d.Analyzer = a.Name
				if suppress(dirs, pkg.Fset.Position(d.Pos), a.Name) {
					return
				}
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", a.Name, err))
		}
	}
	for _, d := range dirs {
		if !d.used {
			diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: d.name,
				Message: fmt.Sprintf("%s %s suppresses no diagnostic on its line or the next", ignoreDirective, d.name)})
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	if len(errs) > 0 {
		return diags, fmt.Errorf("analysis: %s", strings.Join(errs, "; "))
	}
	return diags, nil
}
