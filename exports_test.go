package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestExportedFuncsHaveCallers fails when an exported top-level function
// or method declared under internal/ has no caller outside its own
// declaration in the non-test files of this module and of perfbench: such
// a function is dead code, or test code that belongs in a _test.go file.
// It also fails when an exported field of an exported struct type declared
// under internal/ is never written by that code: such a field is an
// option only tests set.
//
// The check resolves references with go/types over the packages `go list`
// reports, so a caller is the very function or method, not anything that
// shares its name. A method reached only through an interface has no
// static caller: String and Error methods count as called, and any other
// goes in testOnlyMethods with its reason.
//
// A field counts as written by a keyed composite literal, an unkeyed
// literal of its type, an assignment or ++/-- target, or &x.F, outside the
// methods of its own type (defaulting is not configuring). Fields with a
// json tag are wire input and are exempt.
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
		"internal/specs.BuggyFA":             "the corpus golden, speclint's witness golden and fa's engine tests derive the seeded buggy specifications with it",
		"internal/xtrace.Opt":                "concept's big-corpus fixture marks optional model steps with it",
	}
	// testOnlyMethods is testOnlyExports for methods, keyed
	// "<directory>.<receiver type>.<name>". Besides methods another
	// package's tests call, it lists methods that satisfy an interface
	// and are only called through it.
	testOnlyMethods := map[string]string{
		"internal/fa.FA.Sample":            "concept's benchmarks draw their traces with it",
		"internal/scanio.Error.Unwrap":     "errors.Is and errors.As call it through the Unwrap() error interface",
		"internal/server.httpError.Unwrap": "errors.Is and errors.As call it through the Unwrap() error interface",
	}
	// unsetFields lists the exported fields no non-test code writes, with
	// the reason each stays, keyed "<directory>.<type>.<field>".
	unsetFields := map[string]string{
		"internal/exp.Config.Workers": "perfbench reads it; it goes with the other perfbench shims of ROADMAP item 7",
	}

	pkgs := loadModule(t)

	type decl struct {
		key      string
		pos, end token.Pos
		called   bool
	}
	funcs := map[*types.Func]*decl{}
	type field struct {
		key     string
		owner   *types.TypeName
		written bool
	}
	fields := map[*types.Var]*field{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := p.info.Defs[d.Name].(*types.Func)
					key := p.dir + "." + d.Name.Name
					if recv := recvType(fn); recv != nil {
						key = p.dir + "." + recv.Name() + "." + d.Name.Name
					}
					funcs[fn] = &decl{key: key, pos: d.Pos(), end: d.End(), called: isStringer(fn)}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() {
							continue
						}
						tn := p.info.Defs[ts.Name].(*types.TypeName)
						st, ok := tn.Type().Underlying().(*types.Struct)
						if !ok || tn.IsAlias() {
							continue
						}
						for i := 0; i < st.NumFields(); i++ {
							v := st.Field(i)
							if _, wire := reflect.StructTag(st.Tag(i)).Lookup("json"); v.Exported() && !wire {
								fields[v] = &field{key: p.dir + "." + tn.Name() + "." + v.Name(), owner: tn}
							}
						}
					}
				}
			}
		}
	}

	for _, p := range pkgs {
		// Uses holds the object of every x.Sel selector as well, so it
		// covers method calls and method values.
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if d := funcs[fn.Origin()]; d != nil && (id.Pos() < d.pos || id.Pos() >= d.end) {
				d.called = true
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				// The type whose methods may default its own fields.
				var self *types.TypeName
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					self = recvType(p.info.Defs[fd.Name].(*types.Func))
				}
				write := func(v *types.Var) {
					if fl := fields[v.Origin()]; fl != nil && fl.owner != self {
						fl.written = true
					}
				}
				writeExpr := func(e ast.Expr) {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
							write(s.Obj().(*types.Var))
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						typ := p.info.TypeOf(n)
						if ptr, ok := typ.Underlying().(*types.Pointer); ok {
							typ = ptr.Elem()
						}
						st, ok := typ.Underlying().(*types.Struct)
						if !ok || len(n.Elts) == 0 {
							break
						}
						if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
							for i := 0; i < st.NumFields(); i++ {
								write(st.Field(i))
							}
							break
						}
						for _, e := range n.Elts {
							if v, ok := p.info.Uses[e.(*ast.KeyValueExpr).Key.(*ast.Ident)].(*types.Var); ok {
								write(v)
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							writeExpr(lhs)
						}
					case *ast.IncDecStmt:
						writeExpr(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							writeExpr(n.X)
						}
					}
					return true
				})
			}
		}
	}

	calledFuncs, calledMethods, writtenFields := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for fn, d := range funcs {
		if recvType(fn) == nil {
			calledFuncs[d.key] = d.called
		} else {
			calledMethods[d.key] = d.called
		}
	}
	for _, fl := range fields {
		writtenFields[fl.key] = fl.written
	}
	var missing []string
	// check collects the keys nothing outside tests uses, and fails on
	// allowlist entries that are stale.
	check := func(used map[string]bool, allowed map[string]string, list, kind, fix string) {
		for key, u := range used {
			switch _, ok := allowed[key]; {
			case !u && !ok:
				missing = append(missing, key+fix)
			case u && ok:
				t.Errorf("%s is used outside tests now; drop it from %s", key, list)
			}
		}
		for key := range allowed {
			if _, ok := used[key]; !ok {
				t.Errorf("%s lists %s, which is not an exported %s any more", list, key, kind)
			}
		}
	}
	callFix := " is exported but nothing outside tests calls it: delete it, move it into the _test.go file of its caller, or list it in testOnlyExports or testOnlyMethods with the reason"
	check(calledFuncs, testOnlyExports, "testOnlyExports", "function", callFix)
	check(calledMethods, testOnlyMethods, "testOnlyMethods", "method", callFix)
	check(writtenFields, unsetFields, "unsetFields", "field",
		" is an exported field that nothing outside tests sets: delete it, or list it in unsetFields with the reason")
	sort.Strings(missing)
	for _, m := range missing {
		t.Error(m)
	}
	if len(calledFuncs) == 0 || len(calledMethods) == 0 || len(writtenFields) == 0 {
		t.Fatal("found no exported functions, methods or fields under internal/")
	}
}

// recvType returns the named type a method is declared on, or nil for a
// function.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := types.Unalias(recv.Type())
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	return t.(*types.Named).Obj()
}

// isStringer reports whether fn is a String() string or Error() string
// method, which fmt and the error interface call.
func isStringer(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	return sig.Recv() != nil && (fn.Name() == "String" || fn.Name() == "Error") &&
		sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
}

// checkedPackage is one package of this module or of perfbench,
// type-checked from its non-test files.
type checkedPackage struct {
	dir   string // relative to the module root, slash-separated
	files []*ast.File
	info  *types.Info
}

// loadModule type-checks the non-test files of every package of this
// module and of perfbench, in dependency order. Standard-library imports
// come from the export data `go list -export` reports; this module's
// imports come from the packages already checked. The sources are read in
// this process, so the test cache sees edits to them.
func loadModule(t *testing.T) []checkedPackage {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("go list reported no export data for %q", path)
		}
		return os.Open(file)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	var out []checkedPackage
	for _, dir := range []string{".", "perfbench"} {
		for _, lp := range goList(t, filepath.Join(root, dir)) {
			if lp.Standard {
				exports[lp.ImportPath] = lp.Export
				continue
			}
			if _, ok := checked[lp.ImportPath]; ok {
				continue // perfbench's listing repeats this module's packages
			}
			rel, err := filepath.Rel(root, lp.Dir)
			if err != nil {
				t.Fatal(err)
			}
			p := checkedPackage{dir: filepath.ToSlash(rel), info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}}
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				p.files = append(p.files, f)
			}
			tp, err := conf.Check(lp.ImportPath, fset, p.files, p.info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
			}
			checked[lp.ImportPath] = tp
			out = append(out, p)
		}
	}
	return out
}

// listedPackage is the part of a `go list -json` record the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Error      *struct{ Err string }
}

// goList lists the packages of the module in dir and their dependencies,
// dependencies first, with export data for each. The listing stays
// offline, uses the local toolchain and ignores any workspace file.
func goList(t *testing.T, dir string) []listedPackage {
	pattern := "./..."
	if filepath.Base(dir) == "perfbench" {
		pattern = "."
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", pattern)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			t.Fatalf("go list in %s: %s: %s", dir, p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
