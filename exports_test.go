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
// or method declared under internal/ has no reference outside its own
// declaration in the non-test files of this module and of perfbench: such
// a function is dead code, or test code that belongs in a _test.go file.
// A reference to a function is a pkg.Name selector from another package,
// or an identifier in the declaring package that does not name a field, a
// method or a composite literal key. A reference to a method is any x.Name
// selector other than a pkg.Name selector into an imported package. The
// check is syntactic: it does not resolve scopes or types, so a local name
// that shadows a function or an import, or any other selector of the same
// name, counts as a reference.
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
	// testOnlyMethods is testOnlyExports for methods, keyed
	// "<directory>.<receiver type>.<name>". Besides methods another
	// package's tests call, it lists methods that satisfy an interface
	// and are only called through it.
	testOnlyMethods := map[string]string{
		"internal/bitset.Arena.Int32s":        "the poolarena analyzer's testdata calls it",
		"internal/fa.FA.Sample":               "concept's benchmarks draw their traces with it",
		"internal/scanio.Error.Unwrap":        "errors.Is and errors.As call it through the Unwrap() error interface",
		"internal/server.httpError.Unwrap":    "errors.Is and errors.As call it through the Unwrap() error interface",
		"internal/strategy.trialSource.Int63": "rand.Rand calls it through the rand.Source interface",
	}
	type funcDecl struct {
		key      string // "<directory>.<name>"
		pos, end token.Pos
	}
	var decls, methods []funcDecl
	// selectors holds "<directory>.<name>" for every pkg.Name selector
	// into this module; idents holds the positions of the exported
	// identifiers each directory's files use, keyed the same way;
	// fieldSels holds the positions of every other x.Name selector, keyed
	// by Name.
	selectors := map[string]bool{}
	idents := map[string][]token.Pos{}
	fieldSels := map[string][]token.Pos{}
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
			// imports maps each import's local name to its directory in
			// this module, or to "" for a package outside it, whose
			// selectors (os.Rename) call no method.
			imports := map[string]string{}
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				local := path.Base(ip)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = ""
				if strings.HasPrefix(ip, "repro/") {
					imports[local] = strings.TrimPrefix(ip, "repro/")
				}
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
				if !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
					continue
				}
				if fd.Recv == nil {
					decls = append(decls, funcDecl{dir + "." + fd.Name.Name, fd.Pos(), fd.End()})
				} else {
					methods = append(methods, funcDecl{dir + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name, fd.Pos(), fd.End()})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if target, ok := imports[x.Name]; ok {
							if target != "" {
								selectors[target+"."+n.Sel.Name] = true
							}
							return false
						}
					}
					notRef[n.Sel] = true
					fieldSels[n.Sel.Name] = append(fieldSels[n.Sel.Name], n.Sel.Pos())
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

	// outside reports whether a position lies outside the declaration.
	outside := func(d funcDecl, positions []token.Pos) bool {
		for _, pos := range positions {
			if pos < d.pos || pos >= d.end {
				return true
			}
		}
		return false
	}
	var missing []string
	// check collects the declarations nothing outside tests uses, and
	// fails on allowlist entries that are stale.
	check := func(decls []funcDecl, allowed map[string]string, list, kind string, used func(funcDecl) bool) {
		seen := map[string]bool{}
		for _, d := range decls {
			seen[d.key] = true
			_, ok := allowed[d.key]
			switch u := used(d); {
			case !u && !ok:
				missing = append(missing, d.key)
			case u && ok:
				t.Errorf("%s has a non-test caller now; drop it from %s", d.key, list)
			}
		}
		for key := range allowed {
			if !seen[key] {
				t.Errorf("%s lists %s, which is not an exported %s any more", list, key, kind)
			}
		}
	}
	check(decls, testOnlyExports, "testOnlyExports", "function", func(d funcDecl) bool {
		return selectors[d.key] || outside(d, idents[d.key])
	})
	check(methods, testOnlyMethods, "testOnlyMethods", "method", func(d funcDecl) bool {
		return outside(d, fieldSels[d.key[strings.LastIndex(d.key, ".")+1:]])
	})
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s is exported but nothing outside tests calls it: delete it, move it into the _test.go file of its caller, or list it in testOnlyExports or testOnlyMethods with the reason", key)
	}
	if len(decls) == 0 || len(methods) == 0 {
		t.Fatal("found no exported functions or methods under internal/")
	}
}

// recvType returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
