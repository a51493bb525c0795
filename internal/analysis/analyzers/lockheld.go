package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// LockHeld guards the HTTP server's concurrency design (internal/server):
// the per-session mutex serializes commands on one session, so holding it
// across a blocking operation — building a lattice, writing the HTTP
// response, sleeping — stalls every queued request for that session and,
// under the store's read lock, can back up unrelated sessions too. The
// analyzer knows two ways a region can be locked: an explicit
// mu.Lock()/Unlock() window, and the body of a function literal passed to
// withSession, which the server runs entirely under the session entry's
// mutex.
var LockHeld = &analysis.Analyzer{
	Name: "lockheld",
	Doc: "check that the per-session mutex is not held across blocking " +
		"calls (lattice builds, HTTP writes, sleeps)",
	Run: runLockHeld,
}

// blockingCalls maps funcKey forms to a short reason used in the
// diagnostic. The set is the repository's own long-running operations
// plus the usual stdlib suspects.
var blockingCalls = map[string]string{
	"repro/internal/cable.NewSession":           "builds the initial lattice",
	"repro/internal/cable.Session.Focus":        "rebuilds the lattice",
	"repro/internal/cable.Session.SuggestFocus": "builds a lattice per candidate template",
	"repro/internal/cable.Suggest":              "builds a lattice per candidate template",
	"repro/internal/concept.Build":              "builds a lattice",
	"repro/internal/concept.BuildCtx":           "builds a lattice",
	"repro/internal/concept.BuildFromTraces":    "builds a lattice",
	"repro/internal/concept.BuildFromTracesCtx": "builds a lattice",
	"repro/internal/concept.TraceContext":       "simulates every trace",
	"repro/internal/concept.TraceContextCtx":    "simulates every trace",
	"repro/internal/obs.Metrics.WriteText":      "renders a full metrics snapshot",
	"time.Sleep":                                "sleeps",
	"net/http.Client.Do":                        "performs network I/O",
	"net/http.Get":                              "performs network I/O",
	"net/http.Post":                             "performs network I/O",
	"net/http.ResponseController.Flush":         "performs network I/O",
}

func runLockHeld(pass *analysis.Pass) error {
	// Function literals passed to withSession run with the session lock
	// held from their first statement; collect them so the body walk can
	// start in the locked state.
	lockedLits := map[*ast.FuncLit]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if name != "withSession" && name != "withEntry" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					lockedLits[lit] = true
				}
			}
			return true
		})
	}
	for _, fb := range functionBodies(pass) {
		locked := false
		if lit, ok := fb.node.(*ast.FuncLit); ok && lockedLits[lit] {
			locked = true
		}
		w := &lockWalker{pass: pass}
		w.walk(fb.body.List, locked)
	}
	return nil
}

// calleeName is the syntactic callee name (withSession in both
// s.withSession(...) and withSession(...) forms).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// lockWalker tracks the locked state lexically through one body. Branch
// bodies inherit the state at entry; an Unlock inside one arm does not
// clear the state for code after the branch.
type lockWalker struct {
	pass *analysis.Pass
}

func (w *lockWalker) walk(stmts []ast.Stmt, locked bool) bool {
	for _, s := range stmts {
		locked = w.walkStmt(s, locked)
	}
	return locked
}

func (w *lockWalker) walkStmt(s ast.Stmt, locked bool) bool {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			switch mutexOp(w.pass, call) {
			case "Lock", "RLock":
				return true
			case "Unlock", "RUnlock":
				return false
			}
		}
		w.checkExpr(st.X, locked)
		return locked
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to the end of the
		// function — state stays locked, which is the point.
		if op := mutexOp(w.pass, st.Call); op == "Unlock" || op == "RUnlock" {
			return locked
		}
		return locked
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			w.checkExpr(rhs, locked)
		}
		return locked
	case *ast.ReturnStmt:
		for _, res := range st.Results {
			w.checkExpr(res, locked)
		}
		return locked
	case *ast.GoStmt:
		return locked // the goroutine runs outside this lock region
	case *ast.BlockStmt:
		return w.walk(st.List, locked)
	case *ast.LabeledStmt:
		return w.walkStmt(st.Stmt, locked)
	case *ast.IfStmt:
		if st.Init != nil {
			locked = w.walkStmt(st.Init, locked)
		}
		w.checkExpr(st.Cond, locked)
		w.walk(st.Body.List, locked)
		if st.Else != nil {
			w.walkStmt(st.Else, locked)
		}
		return locked
	case *ast.ForStmt:
		w.walk(st.Body.List, locked)
		return locked
	case *ast.RangeStmt:
		w.checkExpr(st.X, locked)
		w.walk(st.Body.List, locked)
		return locked
	case *ast.SwitchStmt:
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				w.walk(cl.Body, locked)
			}
		}
		return locked
	case *ast.TypeSwitchStmt:
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				w.walk(cl.Body, locked)
			}
		}
		return locked
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				w.walk(cl.Body, locked)
			}
		}
		return locked
	}
	return locked
}

// mutexOp classifies a call as a sync.Mutex/RWMutex Lock-family
// operation and returns the method name, or "".
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	pkg, name := namedType(sig.Recv().Type())
	if pkg == "sync" && (name == "Mutex" || name == "RWMutex") {
		return fn.Name()
	}
	return ""
}

// checkExpr reports blocking calls in an expression evaluated while the
// lock is held. Function literals are skipped: they run when called, not
// where they are written.
func (w *lockWalker) checkExpr(e ast.Expr, locked bool) {
	if !locked || e == nil {
		return
	}
	walkShallow(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if why, name, ok := w.blocking(call); ok {
			w.pass.Reportf(call.Pos(), "blocking call %s while the session lock is held (%s)", name, why)
		}
		return true
	})
}

// blocking classifies a call: a known long-running function, or any call
// handed the http.ResponseWriter (response writes block on the client).
func (w *lockWalker) blocking(call *ast.CallExpr) (why, name string, ok bool) {
	fn := calleeFunc(w.pass, call)
	key := funcKey(fn)
	if why, ok := blockingCalls[key]; ok {
		return why, displayName(key), true
	}
	for _, arg := range call.Args {
		pkg, tname := namedType(w.pass.TypeOf(arg))
		if pkg == "net/http" && tname == "ResponseWriter" {
			n := calleeName(call)
			if n == "" {
				n = "call"
			}
			return "writes the HTTP response", n, true
		}
	}
	return "", "", false
}

// displayName shortens a funcKey to pkg.Func / pkg.Type.Method form.
func displayName(key string) string {
	i := strings.LastIndex(key, "/")
	if i < 0 {
		return key
	}
	return key[i+1:]
}
