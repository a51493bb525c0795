package analyzers

import (
	"fmt"
	"go/ast"

	"repro/internal/analysis"
)

// ObsSpan enforces the repository's span convention (internal/obs): a
// started span must be ended on every return path. The reliable idiom is
//
//	sp := obs.StartSpan("phase")
//	defer sp.End()
//
// but an explicit sp.End() before each return (for a fast path that
// returns before the timed work) also satisfies the checker. A span that is
// started and never ended silently loses its phase from every metrics
// snapshot — exactly the kind of drift no test notices.
var ObsSpan = &analysis.Analyzer{
	Name: "obsspan",
	Doc: "check that every started obs span is ended on all return paths " +
		"(defer sp.End(), or sp.End() before each return)",
	Run: runObsSpan,
}

func runObsSpan(pass *analysis.Pass) error {
	for _, fb := range functionBodies(pass) {
		checkSpansInBody(pass, fb)
	}
	return nil
}

// isSpanValued reports whether e's static type is obs.Span.
func isSpanValued(pass *analysis.Pass, e ast.Expr) bool {
	pkg, name := namedType(pass.TypeOf(e))
	return pkg == obsPkgPath && name == "Span"
}

func checkSpansInBody(pass *analysis.Pass, fb funcBody) {
	// Collect span-start assignments: a single-value assignment whose
	// RHS call yields an obs.Span.
	type start struct {
		assign *ast.AssignStmt
		ident  *ast.Ident
		label  string // span name literal when available, else var name
	}
	var starts []start
	walkShallow(fb.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isSpanValued(pass, call) || len(as.Lhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		label := id.Name
		if len(call.Args) > 0 {
			if lit := stringLit(call.Args[0]); lit != "" {
				label = fmt.Sprintf("%q", lit)
			}
		}
		starts = append(starts, start{assign: as, ident: id, label: label})
		return true
	})
	for _, st := range starts {
		obj := pass.ObjectOf(st.ident)
		if obj == nil {
			continue
		}
		c := &spanWalker{pass: pass, obj: obj, label: st.label, start: st.assign}
		// A span with no End reference at all gets one report at the
		// start; otherwise each offending return path is reported.
		if !c.hasEndReference(fb.body) {
			pass.Reportf(st.assign.Pos(), "obs span %s is started but never ended", st.label)
			continue
		}
		started, ended := c.walk(fb.body.List, false, false)
		// Fall-off-the-end path: only functions without results can
		// reach the closing brace implicitly, and only a span still
		// open in the top-level flow (not one scoped to a loop body,
		// which starts and ends per iteration) is left dangling there.
		if started && !ended && !c.deferred && !functionHasResults(fb) && !endsInTerminator(fb.body) {
			pass.Reportf(st.assign.Pos(), "obs span %s is not ended before the function falls off its end", c.label)
		}
	}
}

func functionHasResults(fb funcBody) bool {
	var ft *ast.FuncType
	switch n := fb.node.(type) {
	case *ast.FuncDecl:
		ft = n.Type
	case *ast.FuncLit:
		ft = n.Type
	}
	return ft != nil && ft.Results != nil && len(ft.Results.List) > 0
}

func endsInTerminator(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.ForStmt:
		return last.Cond == nil // for {} never falls through
	}
	return false
}

// spanWalker tracks one span variable through a function body. The
// analysis is a conservative lexical walk: branch bodies are analyzed
// with the state at branch entry, and the state after a branch is the
// state before it (an End inside one arm of an if does not count as
// ending the span for code after the if — spans in this codebase end
// unconditionally, so the approximation never fires on correct code).
type spanWalker struct {
	pass     *analysis.Pass
	obj      any
	label    string
	start    ast.Stmt
	deferred bool
}

// isEndCall reports whether n is sp.End(...) for the tracked span.
func (c *spanWalker) isEndCall(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && c.pass.TypesInfo.Uses[id] == c.obj
}

func (c *spanWalker) hasEndReference(body *ast.BlockStmt) bool {
	found := false
	walkShallow(body, func(n ast.Node) bool {
		if c.isEndCall(n) {
			found = true
		}
		return !found
	})
	return found
}

// walk processes a statement sequence; started/ended are the state at
// entry, the returns are the state at the sequence's fall-through end.
func (c *spanWalker) walk(stmts []ast.Stmt, started, ended bool) (bool, bool) {
	for _, s := range stmts {
		started, ended = c.walkStmt(s, started, ended)
	}
	return started, ended
}

func (c *spanWalker) walkStmt(s ast.Stmt, started, ended bool) (bool, bool) {
	if s == c.start {
		return true, false
	}
	switch st := s.(type) {
	case *ast.DeferStmt:
		if started && c.isEndCall(st.Call) {
			c.deferred = true
		}
	case *ast.ExprStmt:
		if started && c.isEndCall(st.X) {
			return started, true
		}
	case *ast.ReturnStmt:
		if started && !ended && !c.deferred {
			c.pass.Reportf(st.Pos(), "obs span %s is not ended on this return path", c.label)
		}
	case *ast.BlockStmt:
		return c.walk(st.List, started, ended)
	case *ast.LabeledStmt:
		return c.walkStmt(st.Stmt, started, ended)
	case *ast.IfStmt:
		if st.Init != nil {
			started, ended = c.walkStmt(st.Init, started, ended)
		}
		c.walk(st.Body.List, started, ended)
		if st.Else != nil {
			c.walkStmt(st.Else, started, ended)
		}
	case *ast.ForStmt:
		c.walk(st.Body.List, started, ended)
	case *ast.RangeStmt:
		c.walk(st.Body.List, started, ended)
	case *ast.SwitchStmt:
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.walk(cl.Body, started, ended)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.walk(cl.Body, started, ended)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				c.walk(cl.Body, started, ended)
			}
		}
	}
	return started, ended
}
