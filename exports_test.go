package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExportedFuncsHaveCallers fails when an exported top-level function
// declared under internal/ has no reference outside its own declaration
// in the non-test files of this module and of perfbench: such a function
// is dead code, or test code that belongs in a _test.go file. A reference
// is a pkg.Name selector from another package, or an identifier in the
// declaring package that does not name a field, a method or a composite
// literal key. The check is syntactic: it does not resolve scopes, so a
// local name that shadows a function still counts as a reference.
func TestExportedFuncsHaveCallers(t *testing.T) {
	// testOnlyExports lists the exported functions under internal/ that
	// no non-test code calls, with the reason each stays: another
	// package's tests call it, and a test cannot import a _test.go file.
	// Keys are "<directory>.<name>".
	testOnlyExports := map[string]string{
		"internal/analysis/analysistest.Run": "the analyzers' golden tests run their testdata packages through it",
		"internal/bitset.Union":              "strategy's oracle tests build label sets with it",
		"internal/event.Bind":                "trace's tests build assignment events with it",
		"internal/event.ParseAll":            "fa's regex and property tests parse event lists with it",
		"internal/fa.MustCompile":            "verify's static tests and wellformed's example build pattern automata with it",
		"internal/strategy.Random":           "the root benchmarks run single Random trials",
		"internal/xtrace.Opt":                "concept's big-corpus fixture marks optional model steps with it",
	}
	type funcDecl struct {
		key      string // "<directory>.<name>"
		pos, end token.Pos
	}
	var decls []funcDecl
	// selectors holds "<directory>.<name>" for every pkg.Name selector
	// into this module; idents holds the positions of the exported
	// identifiers each directory's files use, keyed the same way.
	selectors := map[string]bool{}
	idents := map[string][]token.Pos{}
	fset := token.NewFileSet()

	parseTree := func(root string) {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if p != root && (name == "testdata" || name == "bin" || strings.HasPrefix(name, ".") || name == "perfbench" && root == ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(p))
			imports := map[string]string{} // local name → directory in this module
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(ip, "repro/") {
					continue
				}
				local := path.Base(ip)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = strings.TrimPrefix(ip, "repro/")
			}
			// Names that declare a function or method, a field or an
			// interface method, or that key a composite literal, refer to
			// no package-level function.
			notRef := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				notRef[fd.Name] = true
				if fd.Recv == nil && fd.Name.IsExported() && strings.HasPrefix(dir, "internal/") {
					decls = append(decls, funcDecl{dir + "." + fd.Name.Name, fd.Pos(), fd.End()})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if target, ok := imports[x.Name]; ok {
							selectors[target+"."+n.Sel.Name] = true
							return false
						}
					}
					notRef[n.Sel] = true
				case *ast.Field:
					for _, id := range n.Names {
						notRef[id] = true
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						notRef[id] = true
					}
				case *ast.Ident:
					if n.IsExported() && !notRef[n] {
						idents[dir+"."+n.Name] = append(idents[dir+"."+n.Name], n.Pos())
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	parseTree(".")
	parseTree("perfbench")

	var missing []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		used := selectors[d.key]
		for _, pos := range idents[d.key] {
			if pos < d.pos || pos >= d.end {
				used = true
			}
		}
		_, allowed := testOnlyExports[d.key]
		switch {
		case !used && !allowed:
			missing = append(missing, d.key)
		case used && allowed:
			t.Errorf("%s has a non-test caller now; drop it from testOnlyExports", d.key)
		}
	}
	for key := range testOnlyExports {
		if !seen[key] {
			t.Errorf("testOnlyExports lists %s, which is not an exported function any more", key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s is exported but nothing outside tests calls it: delete it, move it into the _test.go file of its caller, or list it in testOnlyExports with the reason", key)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/")
	}
}
