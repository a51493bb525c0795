// Package analysis is a self-contained static-analysis framework in the
// shape of golang.org/x/tools/go/analysis, reimplemented over the
// standard library's go/ast and go/types because this repository carries
// no module dependencies. It hosts the project-specific invariant
// checkers of cmd/cablevet: an Analyzer inspects one type-checked
// package (a Pass) and reports Diagnostics.
//
// Two drivers share the framework:
//
//   - cmd/cablevet invoked by `go vet -vettool=` (RunUnitchecker, which
//     speaks the vet.cfg protocol), and
//   - the analysistest golden-file runner used by the analyzer tests
//     (LoadDir).
//
// Diagnostics can be suppressed at the source line with a comment of the
// form
//
//	//cablevet:ignore <analyzer> [reason]
//
// placed on the flagged line or the line above it. The analyzer name
// "all" suppresses every checker. Suppressions are applied centrally by
// RunPackage, so every driver honors them identically.
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
	// Doc is a one-paragraph description shown by `cablevet -help`.
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

// suppressions maps "file:line" to the set of analyzer names ignored at
// that line.
type suppressions map[string]map[string]bool

// collectSuppressions scans the package's comments for ignore
// directives. A directive suppresses its own line and the next line, so
// it works both trailing a statement and on its own line above one.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	add := func(file string, line int, name string) {
		key := fmt.Sprintf("%s:%d", file, line)
		if sup[key] == nil {
			sup[key] = map[string]bool{}
		}
		sup[key][name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignoreDirective)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				add(pos.Filename, pos.Line, fields[0])
				add(pos.Filename, pos.Line+1, fields[0])
			}
		}
	}
	return sup
}

// suppressed reports whether a diagnostic of the named analyzer at pos
// is covered by an ignore directive.
func (s suppressions) suppressed(fset *token.FileSet, pos token.Pos, analyzer string) bool {
	p := fset.Position(pos)
	names := s[fmt.Sprintf("%s:%d", p.Filename, p.Line)]
	return names != nil && (names[analyzer] || names["all"])
}

// RunPackage runs every analyzer over one loaded package and returns the
// surviving (non-suppressed) diagnostics sorted by position. Analyzer
// errors are returned joined after all analyzers have run.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup := collectSuppressions(pkg.Fset, pkg.Files)
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
				if sup.suppressed(pkg.Fset, d.Pos, a.Name) {
					return
				}
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", a.Name, err))
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
