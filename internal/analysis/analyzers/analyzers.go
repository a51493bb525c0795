// Package analyzers holds the cablevet invariant suite: six
// project-specific checkers that enforce conventions no compiler pass
// verifies — span hygiene (obsspan), context plumbing (ctxpropagate),
// scanner error wrapping (errwrapline), blocking calls under the
// per-session lock (lockheld), arena ownership for lattice bitsets
// (poolarena), and the uniform HTTP error envelope (errenvelope). See DESIGN.md's "Static analysis"
// section for the catalogue and the suppression syntax.
package analyzers

import (
	"go/ast"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

// All returns the full cablevet analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{ObsSpan, CtxPropagate, ErrWrapLine, LockHeld, PoolArena, ErrEnvelope}
}

// obsPkgPath is the observability package every span rule keys on.
const obsPkgPath = "repro/internal/obs"

// scanioPkgPath is the shared scanner-policy package.
const scanioPkgPath = "repro/internal/scanio"

// funcBody pairs a function-like node with its body. Analyzers walk
// bodies without descending into nested function literals, so each
// literal is analyzed exactly once, in its own scope.
type funcBody struct {
	node ast.Node // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt
	decl *ast.FuncDecl // nil for literals
}

// functionBodies collects every function and function literal body in
// the pass's files.
func functionBodies(pass *analysis.Pass) []funcBody {
	var out []funcBody
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					out = append(out, funcBody{node: fn, body: fn.Body, decl: fn})
				}
			case *ast.FuncLit:
				out = append(out, funcBody{node: fn, body: fn.Body})
			}
			return true
		})
	}
	return out
}

// walkShallow visits the statement/expression tree under n without
// entering nested function literals.
func walkShallow(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// namedType unwraps pointers and reports the named type's package path
// and name, or ("", "") for unnamed types.
func namedType(t types.Type) (pkgPath, name string) {
	if t == nil {
		return "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// calleeFunc resolves a call's static callee, or nil for indirect calls
// and builtins.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// funcKey renders a callee as "pkgpath.Name" or "pkgpath.Recv.Name" for
// methods, the form the blocking-call table uses.
func funcKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig != nil && sig.Recv() != nil {
		if _, recvName := namedType(sig.Recv().Type()); recvName != "" {
			return pkg + "." + recvName + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

// identObj resolves an identifier to its object (uses before defs).
func identObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Defs[id]
}

// mentionsObj reports whether the expression tree references obj.
// Subtrees that copy their operand — string(...) conversions and the
// len/cap builtins — are skipped: a copy cannot retain arena memory.
func mentionsObj(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				switch fun.Name {
				case "string", "len", "cap":
					if pass.TypesInfo.Uses[fun] == nil || pass.TypesInfo.Uses[fun].Pkg() == nil {
						return false // conversion or builtin: operand is copied/measured
					}
				}
			default:
				_ = fun
			}
		}
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// rootIdent returns the leftmost identifier of a selector/index chain
// (sc in sc.fwd[i]), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// stringLit returns the value of a string literal expression, or "".
func stringLit(e ast.Expr) string {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok {
		return ""
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return ""
	}
	return s
}
