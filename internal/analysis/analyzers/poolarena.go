package analyzers

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// bitsetPkgPath is the bitset package whose Arena allocator the poolarena
// rule keys on.
const bitsetPkgPath = "repro/internal/bitset"

// PoolArena enforces the arena ownership rule of the lattice builder
// (internal/concept): a bitset carved from a bitset.Arena — via
// arena.Set or arena.Clone — belongs to the build that allocated the
// arena and pins the arena's slabs for as long as it lives.
// Such a value must not be captured by a goroutine (arenas are
// single-goroutine allocators), stored in a package-level variable (which
// would pin the slabs for the process lifetime), or returned from a
// function that does not itself take an *bitset.Arena parameter or
// receiver. Functions that do take an arena are builder helpers: their
// caller owns the arena, so handing arena-backed sets back to it is the
// convention (tauArena, and the build loop itself, work this way).
var PoolArena = &analysis.Analyzer{
	Name: "poolarena",
	Doc: "check that arena-backed bitsets do not escape the build that " +
		"allocated their arena",
	Run: runPoolArena,
}

func runPoolArena(pass *analysis.Pass) error {
	for _, fb := range functionBodies(pass) {
		checkArenaInBody(pass, fb)
	}
	return nil
}

// isArenaAlloc reports whether e is a method call on *bitset.Arena — the
// allocation sites whose results are arena-backed.
func isArenaAlloc(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	pkg, name := namedType(sig.Recv().Type())
	return pkg == bitsetPkgPath && name == "Arena"
}

// takesArena reports whether the function declares a *bitset.Arena
// parameter or receiver — the builder-helper convention under which
// returning arena-backed values is the caller's business.
func takesArena(pass *analysis.Pass, fb funcBody) bool {
	var fields []*ast.Field
	if fb.decl != nil {
		if fb.decl.Recv != nil {
			fields = append(fields, fb.decl.Recv.List...)
		}
		if fb.decl.Type.Params != nil {
			fields = append(fields, fb.decl.Type.Params.List...)
		}
	} else if lit, ok := fb.node.(*ast.FuncLit); ok && lit.Type.Params != nil {
		fields = append(fields, lit.Type.Params.List...)
	}
	for _, f := range fields {
		if pkg, name := namedType(pass.TypeOf(f.Type)); pkg == bitsetPkgPath && name == "Arena" {
			return true
		}
	}
	return false
}

func checkArenaInBody(pass *analysis.Pass, fb funcBody) {
	// Pass 1: find arena-backed variables. `x := arena.Set(...)` and direct
	// aliases `y := x` both join the tracked set.
	tracked := map[types.Object]bool{}
	walkShallow(fb.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.ObjectOf(id)
			if obj == nil {
				continue
			}
			if isArenaAlloc(pass, rhs) {
				tracked[obj] = true
			} else if src := identObj(pass, rhs); src != nil && tracked[src] {
				tracked[obj] = true
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}
	exempt := takesArena(pass, fb)
	walkShallow(fb.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			for obj := range tracked {
				if mentionsObj(pass, st.Call, obj) {
					pass.Reportf(st.Pos(), "arena-backed %s is captured by a goroutine", obj.Name())
				}
			}
		case *ast.ReturnStmt:
			if exempt {
				return true
			}
			for _, res := range st.Results {
				for obj := range tracked {
					if aliasesArena(pass, res, obj) {
						pass.Reportf(st.Pos(), "arena-backed %s escapes via return from a function without an arena parameter", obj.Name())
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if i >= len(st.Lhs) {
					break
				}
				for obj := range tracked {
					if !mentionsObj(pass, rhs, obj) {
						continue
					}
					root := rootIdent(st.Lhs[i])
					if root == nil {
						continue
					}
					lobj := pass.TypesInfo.Uses[root]
					if lobj == nil {
						lobj = pass.TypesInfo.Defs[root]
					}
					if lobj != nil && pass.Pkg != nil && lobj.Parent() == pass.Pkg.Scope() {
						pass.Reportf(st.Pos(), "arena-backed %s is stored in package-level %s", obj.Name(), lobj.Name())
					}
				}
			}
		}
		return true
	})
}

// aliasesArena reports whether e's value can alias the arena-backed
// variable: the variable itself, or a projection rooted at it whose type
// still refers to arena memory. Value copies (s.Len(), s.Has(i)) do not
// alias and may be returned freely.
func aliasesArena(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	if identObj(pass, e) == obj {
		return true
	}
	root := rootIdent(e)
	if root == nil || pass.TypesInfo.Uses[root] != obj {
		return false
	}
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}
