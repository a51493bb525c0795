package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// CtxPropagate enforces the repository's cancellation contract
// (DESIGN.md): an exported function whose name ends in Ctx promises that
// long loops observe ctx — either by checking ctx.Done()/ctx.Err() or by
// handing ctx to a callee that does. A loop with no ctx reference at all
// cannot be cancelled, which turns the Ctx suffix into a lie on large
// inputs. The companion rule keeps the non-Ctx convenience wrappers
// honest: F must delegate to FCtx with context.Background() or
// context.TODO(), never with a context it invented some other way.
var CtxPropagate = &analysis.Analyzer{
	Name: "ctxpropagate",
	Doc: "check that exported *Ctx functions consult ctx in their loops and " +
		"that non-Ctx wrappers delegate with context.Background()",
	Run: runCtxPropagate,
}

func runCtxPropagate(pass *analysis.Pass) error {
	for _, fb := range functionBodies(pass) {
		if fb.decl == nil || !fb.decl.Name.IsExported() {
			continue
		}
		name := fb.decl.Name.Name
		if strings.HasSuffix(name, "Ctx") {
			checkCtxLoops(pass, fb)
		} else {
			checkCtxWrapper(pass, fb, name)
		}
	}
	return nil
}

// ctxParam finds the function's context.Context parameter object.
func ctxParam(pass *analysis.Pass, decl *ast.FuncDecl) (types.Object, string) {
	for _, field := range decl.Type.Params.List {
		t := pass.TypeOf(field.Type)
		if pkg, name := namedType(t); pkg != "context" || name != "Context" {
			continue
		}
		for _, id := range field.Names {
			if id.Name == "_" {
				continue
			}
			if obj := pass.ObjectOf(id); obj != nil {
				return obj, id.Name
			}
		}
	}
	return nil, ""
}

// checkCtxLoops reports outermost loops that never reference ctx. A
// reference anywhere inside the loop counts — a Done() select, an
// Err() check, or passing ctx to a callee (including through a closure
// that captures it).
func checkCtxLoops(pass *analysis.Pass, fb funcBody) {
	obj, name := ctxParam(pass, fb.decl)
	if obj == nil {
		return
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		if !referencesCtx(pass, body, obj) {
			pass.Reportf(n.Pos(), "loop in %s does not consult %s (no Done/Err check and no call receiving it)",
				fb.decl.Name.Name, name)
		}
		return false // inner loops are covered by the outer report
	}
	ast.Inspect(fb.body, visit)
}

// referencesCtx reports whether the subtree mentions the ctx object.
// Unlike mentionsObj it descends into function literals: a closure that
// captures ctx propagates cancellation to whatever runs it.
func referencesCtx(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// checkCtxWrapper flags an exported F that calls FCtx with a context
// other than context.Background() or context.TODO(). Wrappers exist so
// call sites without a context stay terse; smuggling a real context
// through one hides the cancellation path from readers and from this
// analyzer.
func checkCtxWrapper(pass *analysis.Pass, fb funcBody, name string) {
	want := name + "Ctx"
	walkShallow(fb.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Name() != want || len(call.Args) == 0 {
			return true
		}
		if !isBackgroundCtx(pass, call.Args[0]) {
			pass.Reportf(call.Pos(), "wrapper %s must pass context.Background() or context.TODO() to %s",
				name, want)
		}
		return true
	})
}

// isBackgroundCtx matches context.Background() / context.TODO() calls,
// and ignores arguments that are not contexts at all (FCtx may take the
// context in a later position only in foreign code; ours always leads
// with it).
func isBackgroundCtx(pass *analysis.Pass, arg ast.Expr) bool {
	if pkg, tname := namedType(pass.TypeOf(arg)); pkg != "context" || tname != "Context" {
		return true
	}
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "Background" || fn.Name() == "TODO"
}
