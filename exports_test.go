package repro

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestExportedFuncsHaveCallers fails when an exported top-level function
// or method declared under internal/ has no caller outside its own
// declaration in the non-test files of this module and of perfbench: such
// a function is dead code, or test code that belongs in a _test.go file.
// It also fails when an exported field of an exported struct type declared
// under internal/ is never written by that code: such a field is an
// option only tests set.
//
// The check resolves references with go/types over the packages
// analysis.Load type-checks (moduleLoad, shared with TestCablevet), so a
// caller is the very function or method, not anything that shares its
// name. A method reached only through an interface has no static caller:
// String and Error methods count as called, and any other goes in
// testOnlyMethods with its reason.
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
		"internal/analysis.Load":             "this package's module-wide checks, TestCablevet and this one, load the module through it",
		"internal/analysis/analysistest.Run": "the analyzers' golden tests run their testdata packages through it",
		"internal/analysis/analyzers.All":    "TestCablevet runs the invariant suite over the module through it",
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
		"internal/analysis.importerFunc.Import": "go/types calls it through the types.Importer interface while Load checks a package",
		"internal/fa.FA.Sample":                 "concept's benchmarks draw their traces with it",
		"internal/scanio.Error.Unwrap":          "errors.Is and errors.As call it through the Unwrap() error interface",
		"internal/server.httpError.Unwrap":      "errors.Is and errors.As call it through the Unwrap() error interface",
	}
	// unsetFields lists the exported fields no non-test code writes, with
	// the reason each stays, keyed "<directory>.<type>.<field>".
	unsetFields := map[string]string{
		"internal/exp.Config.Workers": "perfbench reads it; it goes with the other perfbench shims of ROADMAP item 7",
	}

	mods, err := moduleLoad()
	if err != nil {
		t.Fatal(err)
	}
	// The callers are this module's plain packages and perfbench's.
	var pkgs []*analysis.Package
	for _, p := range mods[0] {
		if p.ForTest == "" {
			pkgs = append(pkgs, p)
		}
	}
	pkgs = append(pkgs, mods[1]...)

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
		dir := strings.TrimPrefix(p.Types.Path(), "repro/")
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := p.Info.Defs[d.Name].(*types.Func)
					key := dir + "." + d.Name.Name
					if recv := recvType(fn); recv != nil {
						key = dir + "." + recv.Name() + "." + d.Name.Name
					}
					funcs[fn] = &decl{key: key, pos: d.Pos(), end: d.End(), called: isStringer(fn)}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() {
							continue
						}
						tn := p.Info.Defs[ts.Name].(*types.TypeName)
						st, ok := tn.Type().Underlying().(*types.Struct)
						if !ok || tn.IsAlias() {
							continue
						}
						for i := 0; i < st.NumFields(); i++ {
							v := st.Field(i)
							if _, wire := reflect.StructTag(st.Tag(i)).Lookup("json"); v.Exported() && !wire {
								fields[v] = &field{key: dir + "." + tn.Name() + "." + v.Name(), owner: tn}
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
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if d := funcs[fn.Origin()]; d != nil && (id.Pos() < d.pos || id.Pos() >= d.end) {
				d.called = true
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				// The type whose methods may default its own fields.
				var self *types.TypeName
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					self = recvType(p.Info.Defs[fd.Name].(*types.Func))
				}
				write := func(v *types.Var) {
					if fl := fields[v.Origin()]; fl != nil && fl.owner != self {
						fl.written = true
					}
				}
				writeExpr := func(e ast.Expr) {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
							write(s.Obj().(*types.Var))
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						typ := p.Info.TypeOf(n)
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
							if v, ok := p.Info.Uses[e.(*ast.KeyValueExpr).Key.(*ast.Ident)].(*types.Var); ok {
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
